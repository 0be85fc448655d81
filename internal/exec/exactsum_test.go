package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
)

// bigSum is the previous exact accumulator, a 2176-bit big.Float, kept
// verbatim as the oracle exactSum must agree with bit for bit.
type bigSum struct {
	f    *big.Float // exact running sum of finite addends; nil until first add
	nan  bool       // saw a NaN addend
	pinf bool       // saw a +Inf addend
	ninf bool       // saw a -Inf addend
}

// add folds one float64 into the sum.
func (s *bigSum) add(v float64) {
	switch {
	case math.IsNaN(v):
		s.nan = true
	case math.IsInf(v, 1):
		s.pinf = true
	case math.IsInf(v, -1):
		s.ninf = true
	default:
		if s.f == nil {
			s.f = new(big.Float).SetPrec(exactSumPrec)
		}
		s.f.Add(s.f, big.NewFloat(v))
	}
}

// merge folds another partial sum into this one.
func (s *bigSum) merge(o *bigSum) {
	s.nan = s.nan || o.nan
	s.pinf = s.pinf || o.pinf
	s.ninf = s.ninf || o.ninf
	if o.f == nil {
		return
	}
	if s.f == nil {
		s.f = new(big.Float).SetPrec(exactSumPrec).Set(o.f)
		return
	}
	s.f.Add(s.f, o.f)
}

// round collapses the exact sum to the nearest float64 — the one place
// rounding happens. An overflowing finite sum rounds to ±Inf, which is
// the correctly-rounded result and is deterministic.
func (s *bigSum) round() float64 {
	switch {
	case s.nan || (s.pinf && s.ninf):
		return math.NaN()
	case s.pinf:
		return math.Inf(1)
	case s.ninf:
		return math.Inf(-1)
	case s.f == nil:
		return 0
	}
	v, _ := s.f.Float64()
	return v
}

// encode serializes the accumulator: one flag byte followed by the
// big.Float gob encoding of the finite part (absent when no finite
// addend was seen).
func (s *bigSum) encode() []byte {
	var flags byte
	if s.nan {
		flags |= sumFlagNaN
	}
	if s.pinf {
		flags |= sumFlagPInf
	}
	if s.ninf {
		flags |= sumFlagNInf
	}
	out := []byte{flags}
	if s.f != nil {
		gb, err := s.f.GobEncode()
		if err != nil {
			panic(fmt.Sprintf("exec: exactSum gob encode: %v", err))
		}
		out = append(out, gb...)
	}
	return out
}

// decodeBigSum parses an encoded accumulator the way the previous
// decoder did.
func decodeBigSum(b []byte) (bigSum, error) {
	var s bigSum
	if len(b) < 1 {
		return s, fmt.Errorf("exec: exact sum truncated")
	}
	if len(b) > maxExactSumBytes {
		return s, fmt.Errorf("exec: exact sum too large (%d bytes)", len(b))
	}
	flags := b[0]
	if flags&^byte(sumFlagNaN|sumFlagPInf|sumFlagNInf) != 0 {
		return s, fmt.Errorf("exec: exact sum has unknown flags %#x", flags)
	}
	s.nan = flags&sumFlagNaN != 0
	s.pinf = flags&sumFlagPInf != 0
	s.ninf = flags&sumFlagNInf != 0
	if rest := b[1:]; len(rest) > 0 {
		f := new(big.Float)
		if err := f.GobDecode(rest); err != nil {
			return bigSum{}, fmt.Errorf("exec: exact sum: %w", err)
		}
		if f.IsInf() {
			return bigSum{}, fmt.Errorf("exec: exact sum finite part is infinite")
		}
		if f.Prec() != exactSumPrec {
			f.SetPrec(exactSumPrec)
		}
		s.f = f
	}
	return s, nil
}

// exactValue is s's finite part as a big.Float, read off its words
// independently of encode.
func exactValue(s *exactSum) *big.Float {
	r := s.full()
	var be [8 * regWords]byte
	for i, x := range r {
		binary.BigEndian.PutUint64(be[8*(regWords-1-i):], x)
	}
	n := new(big.Int).SetBytes(be[:])
	if int64(r[regWords-1]) < 0 {
		n.Sub(n, new(big.Int).Lsh(big.NewInt(1), 64*regWords))
	}
	f := new(big.Float).SetPrec(exactSumPrec).SetInt(n)
	return f.SetMantExp(f, -1074)
}

// sameSum fails unless s holds exactly o's value and flags, and rounds to
// the same bits.
func sameSum(t *testing.T, what string, s *exactSum, o *bigSum) {
	t.Helper()
	want := new(big.Float)
	if o.f != nil {
		want = o.f
	}
	if got := exactValue(s); got.Cmp(want) != 0 {
		t.Fatalf("%s: exact value %s, oracle %s", what, got.Text('p', 0), want.Text('p', 0))
	}
	if s.nan != o.nan || s.pinf != o.pinf || s.ninf != o.ninf {
		t.Fatalf("%s: flags nan/pinf/ninf %v/%v/%v, oracle %v/%v/%v", what, s.nan, s.pinf, s.ninf, o.nan, o.pinf, o.ninf)
	}
	if g, w := math.Float64bits(s.round()), math.Float64bits(o.round()); g != w {
		t.Fatalf("%s: round %v (%#x), oracle %v (%#x)", what, s.round(), g, o.round(), w)
	}
}

// Addend classes of the fuzz input, each read from its own payload.
const (
	clsRaw     = iota // any float64 bit pattern, 8 bytes
	clsCents          // a two-decimal amount, 2 bytes
	clsHuge           // ±1e308, 1 byte
	clsSubnorm        // a signed subnormal, 2 bytes
	clsSpecial        // -0, +0, ±Inf or NaN, 1 byte
	clsScaled         // a small mantissa at a wide range of exponents, 3 bytes
	numClasses
)

type fuzzReader struct {
	b   []byte
	pos int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.b) {
		return 0
	}
	c := r.b[r.pos]
	r.pos++
	return c
}

func (r *fuzzReader) u16() uint16 { return uint16(r.byte())<<8 | uint16(r.byte()) }

// sumParts decodes fuzz input into two to four parts of addends and the
// order to merge them in.
func sumParts(data []byte) (parts [][]float64, order []int) {
	r := &fuzzReader{b: data}
	parts = make([][]float64, 2+int(r.byte())%3)
	order = rand.New(rand.NewSource(int64(r.byte()))).Perm(len(parts))
	for r.pos < len(r.b) {
		sel := r.byte()
		var v float64
		switch int(sel>>2) % numClasses {
		case clsRaw:
			var b [8]byte
			for i := range b {
				b[i] = r.byte()
			}
			v = math.Float64frombits(binary.BigEndian.Uint64(b[:]))
		case clsCents:
			v = float64(int16(r.u16())) / 100
		case clsHuge:
			v = 1e308
			if r.byte()&1 != 0 {
				v = -v
			}
		case clsSubnorm:
			x := r.u16()
			v = math.Float64frombits(uint64(x >> 1))
			if x&1 != 0 {
				v = -v
			}
		case clsSpecial:
			v = [...]float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN()}[r.byte()%5]
		case clsScaled:
			v = math.Ldexp(float64(int8(r.byte())), int(int16(r.u16()))%1100)
		}
		k := int(sel&3) % len(parts)
		parts[k] = append(parts[k], v)
	}
	return parts, order
}

// sumSeed encodes addends as clsRaw fuzz input spread round-robin over
// nparts parts.
func sumSeed(nparts int, perm byte, vs ...float64) []byte {
	b := []byte{byte(nparts - 2), perm}
	for i, v := range vs {
		b = append(b, byte(clsRaw<<2|i%nparts))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// hostileSums are encodings no encoder produces: decodeExactSum must
// reject every one.
func hostileSums() []struct {
	name string
	b    []byte
} {
	gob := func(f *big.Float) []byte {
		b, err := f.GobEncode()
		if err != nil {
			panic(err)
		}
		return append([]byte{0}, b...)
	}
	one := big.NewFloat(1)
	return []struct {
		name string
		b    []byte
	}{
		{"off-grid 2^-1075", gob(new(big.Float).SetMantExp(one, -1075))},
		{"magnitude 2^1101", gob(new(big.Float).SetMantExp(one, 1101))},
		{"magnitude -2^1101", gob(new(big.Float).SetMantExp(big.NewFloat(-1), 1101))},
		{"oversized", make([]byte, maxExactSumBytes+1)},
		{"unknown flags", []byte{0x08}},
		{"infinite", gob(new(big.Float).SetInf(false))},
		{"invalid form", append(gob(one)[:2:2], 3<<1, 0, 0, 0, 53)},
	}
}

// FuzzExactSum checks the word accumulator against the big.Float oracle:
// addends split over parts, parts merged in arbitrary order, cloned, and
// sent through both encoders and decoders. Every input is also decoded as
// an encoded sum, which must either fail or agree with the old decoder.
func FuzzExactSum(f *testing.F) {
	f.Add(sumSeed(2, 0, 19.99, 0.01, 4999.5, 123.45, 7.1, 0.3, 99.99, 12.34))
	f.Add(sumSeed(3, 1, 1e308, 1e308, -1e308, 1e308, -1e308, -1e308, 0.5))
	f.Add(sumSeed(4, 2, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308))
	f.Add(sumSeed(2, 3, 5e-324, -5e-324, math.Float64frombits(0xfffffffffffff), 2.2250738585072014e-308, 1e-310))
	f.Add(sumSeed(3, 4, math.Copysign(0, -1), math.Copysign(0, -1), 0, math.Copysign(0, -1)))
	f.Add(sumSeed(2, 5, 1, math.Inf(1), 2, math.Inf(-1), 3))
	f.Add(sumSeed(2, 6, 1, math.NaN(), 2, math.Inf(1)))
	f.Add(sumSeed(2, 7, 1e15, 1e-15, 1e200, 1e-200, 3.0, 1e-300, 1e300))
	f.Add(sumSeed(3, 8, 1e-300, 1e-250, 1e-200, 1e-150, 1e-100, 1e-50, 1, 1e50, 1e100))
	f.Add(sumSeed(2, 9, math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64))
	f.Add(sumSeed(2, 10, 1<<53, 1, 1, -1<<53, 3, 1<<60, 1))
	for _, h := range hostileSums() {
		f.Add(h.b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := decodeExactSum(data); err == nil {
			o, oerr := decodeBigSum(data)
			if oerr != nil {
				t.Fatalf("accepted what the previous decoder rejects (%v)", oerr)
			}
			sameSum(t, "raw decode", &s, &o)
			back, err := decodeExactSum(s.encode())
			if err != nil {
				t.Fatalf("re-encoded sum does not decode: %v", err)
			}
			sameSum(t, "raw re-decode", &back, &o)
		}

		parts, order := sumParts(data)
		ns := make([]exactSum, len(parts))
		bs := make([]bigSum, len(parts))
		for k, vs := range parts {
			for _, v := range vs {
				ns[k].add(v)
				bs[k].add(v)
			}
			sameSum(t, fmt.Sprintf("part %d", k), &ns[k], &bs[k])

			// Both encoders' bytes decode through the new decoder; the new
			// encoder's finite part decodes through big.Float itself.
			for name, enc := range map[string][]byte{"new": ns[k].encode(), "old": bs[k].encode()} {
				d, err := decodeExactSum(enc)
				if err != nil {
					t.Fatalf("part %d: %s encoding rejected: %v", k, name, err)
				}
				sameSum(t, fmt.Sprintf("part %d %s encoding", k, name), &d, &bs[k])
			}
			if enc := ns[k].encode(); len(enc) > 1 {
				g := new(big.Float)
				if err := g.GobDecode(enc[1:]); err != nil {
					t.Fatalf("part %d: big.Float rejects the new encoding: %v", k, err)
				}
				if bs[k].f == nil || g.Cmp(bs[k].f) != 0 {
					t.Fatalf("part %d: new encoding decodes to %s via big.Float", k, g.Text('p', 0))
				}
			} else if bs[k].f != nil && bs[k].f.Sign() != 0 {
				t.Fatalf("part %d: new encoding dropped a non-zero sum", k)
			}
		}

		// A clone grows apart from its original.
		c := ns[0].clone()
		c.add(1e308)
		c.add(1e-300)
		sameSum(t, "original after clone grew", &ns[0], &bs[0])

		// Merge in the fuzzed order, alternating original and decoded
		// parts, into an empty sum and into a copy of the first part.
		var acc exactSum
		var oacc bigSum
		for i, k := range order {
			p := ns[k]
			if i%2 == 1 {
				p, _ = decodeExactSum(ns[k].encode())
			}
			acc.merge(&p)
			oacc.merge(&bs[k])
			sameSum(t, fmt.Sprintf("merge step %d", i), &acc, &oacc)
		}
		acc2 := ns[order[0]].clone()
		for _, k := range order[1:] {
			acc2.merge(&ns[k])
		}
		sameSum(t, "merge into a part", &acc2, &oacc)
		sameSum(t, "first part after merges", &ns[order[0]], &bs[order[0]])
	})
}

// TestDecodeExactSumRejectsHostile: encodings no encoder produces fail to
// decode, and neither they nor a sum claiming a 2^32-bit precision make
// the decoder allocate by what they claim.
func TestDecodeExactSumRejectsHostile(t *testing.T) {
	for _, h := range hostileSums() {
		if _, err := decodeExactSum(h.b); err == nil {
			t.Errorf("%s: accepted", h.name)
		}
		if n := allocBytes(func() { decodeExactSum(h.b) }); n > 64<<10 {
			t.Errorf("%s: decode allocated %d bytes", h.name, n)
		}
	}
	claim, _ := big.NewFloat(1.5).GobEncode()
	binary.BigEndian.PutUint32(claim[2:], math.MaxUint32)
	b := append([]byte{0}, claim...)
	s, err := decodeExactSum(b)
	if err != nil || s.round() != 1.5 {
		t.Fatalf("prec-2^32 encoding of 1.5: %v, %v", s.round(), err)
	}
	if n := allocBytes(func() { decodeExactSum(b) }); n > 64<<10 {
		t.Errorf("prec-2^32 claim: decode allocated %d bytes", n)
	}
}

func allocBytes(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestExactSumRandomSequences compares the accumulator with the oracle
// over random sequences mixing magnitudes from subnormal to 1e308.
func TestExactSumRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 2000; seq++ {
		var s exactSum
		var o bigSum
		var parts [3]exactSum
		var oparts [3]bigSum
		for i, n := 0, rng.Intn(40); i < n; i++ {
			var v float64
			switch rng.Intn(4) {
			case 0:
				v = float64(rng.Intn(2000000)-1000000) / 100
			case 1:
				v = math.Ldexp(rng.NormFloat64(), rng.Intn(2100)-1074)
			case 2:
				v = math.Float64frombits(rng.Uint64() & (1<<52 - 1))
			default:
				v = rng.NormFloat64() * 1e6
			}
			s.add(v)
			o.add(v)
			k := rng.Intn(3)
			parts[k].add(v)
			oparts[k].add(v)
		}
		sameSum(t, fmt.Sprintf("sequence %d", seq), &s, &o)
		var m exactSum
		var om bigSum
		for _, k := range rng.Perm(3) {
			m.merge(&parts[k])
			om.merge(&oparts[k])
		}
		sameSum(t, fmt.Sprintf("sequence %d merged", seq), &m, &om)
	}
}

// TestExactSumAddAllocatesNothing: an in-window add allocates nothing,
// and neither does rounding a promoted sum.
func TestExactSumAddAllocatesNothing(t *testing.T) {
	var s exactSum
	if n := testing.AllocsPerRun(1000, func() { s.add(12.34) }); n != 0 {
		t.Fatalf("window add: %v allocs", n)
	}
	s.add(1e308)
	s.add(1e-300)
	if s.reg == nil {
		t.Fatal("1e308 beside 1e-300 did not promote")
	}
	if n := testing.AllocsPerRun(1000, func() { s.add(-0.5) }); n != 0 {
		t.Fatalf("register add: %v allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.round() }); n != 0 {
		t.Fatalf("round: %v allocs", n)
	}
}
