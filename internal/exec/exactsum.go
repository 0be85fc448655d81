package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Every finite float64 is an integer multiple of 2^-1074 with magnitude
// below 2^1024, so a sum of up to 2^63 addends is an integer N (in units
// of 2^-1074) below 2^2161 in magnitude. exactSum keeps N exactly, as a
// two's-complement integer of 64-bit words: the accumulated value is the
// true real-number sum, independent of the order rows arrive in. That is
// what makes parallel, spilled, and distributed partial aggregation
// bit-identical to a sequential scan — each partial is exact, merging
// partials is exact, and the single rounding to float64 happens once at
// render time.
//
// N lives in one of two forms. The window is four inline words holding
// N / 2^(64·off), placed by the first addend with 64 bits of room below
// it; it takes every addend whose top bit stays 64 bits under its own,
// which covers the sums of money, quantities and counts the CH queries
// compute. The register is all 34 words of N (2176 bits, room for any
// 2^63 addends), allocated only when an addend or a merge does not fit
// the window.
const (
	winWords = 4  // window width in words
	regWords = 34 // register width in words: 2176 bits
	// winTop is the highest window bit an addend may reach: an addend
	// above it would leave the window less than 64 bits of headroom.
	winTop = 64*(winWords-1) - 1
	// winRoom is the room the window leaves below the first addend.
	winRoom = 64
	// exactSumPrec is the big.Float precision of the wire and spill
	// encoding: the register's width.
	exactSumPrec = 64 * regWords
	// maxExactSumBytes bounds the serialized accumulator accepted by
	// decodeExactSum. A legitimate prec-2176 big.Float gob encoding is
	// ~300 bytes; anything larger is hostile input.
	maxExactSumBytes = 4096
	// maxSumExp bounds a decoded sum's magnitude below 2^maxSumExp, the
	// most the register holds with its sign bit (2^2175 units of 2^-1074).
	maxSumExp = 64*regWords - 1 - 1074
)

// exactSum accumulates float64 addends without rounding error.
// Non-finite addends are tracked as flags (IEEE summation involving a
// NaN is NaN; +Inf and -Inf together are NaN; otherwise the infinity
// wins), keeping the words strictly finite. The zero value is an empty
// sum.
type exactSum struct {
	win  [winWords]uint64  // N / 2^(64·off) while reg is nil
	reg  *[regWords]uint64 // N, once the window could not hold it
	off  int8              // window offset in words, 0..regWords-winWords
	nan  bool              // saw a NaN addend
	pinf bool              // saw a +Inf addend
	ninf bool              // saw a -Inf addend
}

// add folds one float64 into the sum.
func (s *exactSum) add(v float64) {
	b := math.Float64bits(v)
	m, p := b&(1<<52-1), int(b>>52&0x7ff)
	switch p {
	case 0x7ff:
		switch {
		case m != 0:
			s.nan = true
		case b>>63 == 0:
			s.pinf = true
		default:
			s.ninf = true
		}
		return
	case 0: // ±0 adds nothing; a subnormal's mantissa starts at N bit 0
		if m == 0 {
			return
		}
	default:
		m |= 1 << 52
		p-- // v = m·2^(p-1074): the mantissa starts at N bit p
	}
	// Drop the mantissa's trailing zeros: p is now v's lowest set bit.
	tz := bits.TrailingZeros64(m)
	m, p = m>>tz, p+tz
	neg := b>>63 != 0
	if s.reg == nil {
		if sh := p - 64*int(s.off); (sh >= 0 && sh+bits.Len64(m) <= winTop+1) || s.fit(p) {
			sh = p - 64*int(s.off)
			sign := int64(s.win[winWords-1]) < 0
			addShifted(s.win[:], m, sh, neg)
			if sign != neg || (int64(s.win[winWords-1]) < 0) == sign {
				return
			}
			addShifted(s.win[:], m, sh, !neg) // overflowed: undo, then promote
		}
		s.promote()
	}
	addShifted(s.reg[:], m, p, neg)
}

// fit re-bases the window so that an addend whose lowest set bit is N
// bit p lies inside it with headroom, reporting false when it cannot.
// An empty window moves anywhere, leaving winRoom bits below the addend
// so that smaller addends still land in it; a non-empty one only moves
// down, and only while its value keeps 64 bits of headroom.
func (s *exactSum) fit(p int) bool {
	target := min(max(0, (p-winRoom)>>6), regWords-winWords)
	if s.win == [winWords]uint64{} {
		s.off = int8(target)
		return true
	}
	if p >= 64*int(s.off) {
		return false // above the headroom
	}
	for _, off := range [2]int{target, p >> 6} {
		if fitsWords(s.win[:], winWords-1-(int(s.off)-off)) {
			s.rebase(off)
			return true
		}
	}
	return false
}

// rebase moves the window down to offset off, shifting its words up.
func (s *exactSum) rebase(off int) {
	d := int(s.off) - off
	copy(s.win[d:], s.win[:winWords-d])
	clear(s.win[:d])
	s.off = int8(off)
}

// promote moves the sum from its window to a register.
func (s *exactSum) promote() {
	s.reg = new([regWords]uint64)
	addWords(s.reg[:], s.win[:], int(s.off))
}

// merge folds another partial sum into this one.
func (s *exactSum) merge(o *exactSum) {
	s.nan = s.nan || o.nan
	s.pinf = s.pinf || o.pinf
	s.ninf = s.ninf || o.ninf
	switch {
	case o.reg != nil:
		if s.reg == nil {
			s.promote()
		}
		addWords(s.reg[:], o.reg[:], 0)
	case o.win == [winWords]uint64{}:
	case s.reg != nil:
		addWords(s.reg[:], o.win[:], int(o.off))
	case s.win == [winWords]uint64{}:
		s.win, s.off = o.win, o.off
	case !s.mergeWindow(o):
		s.promote()
		addWords(s.reg[:], o.win[:], int(o.off))
	}
}

// mergeWindow adds o's window to s's, re-basing the higher of the two
// down to the lower offset. It reports false, with s's value unchanged,
// when the sum does not fit a window.
func (s *exactSum) mergeWindow(o *exactSum) bool {
	d := int(o.off) - int(s.off)
	if d < 0 {
		if !fitsWords(s.win[:], winWords-1+d) {
			return false
		}
		s.rebase(int(o.off))
		d = 0
	}
	if d > 0 && !fitsWords(o.win[:], winWords-1-d) {
		return false
	}
	old := s.win
	sign, osign := int64(old[winWords-1]) < 0, int64(o.win[winWords-1]) < 0
	addWords(s.win[:], o.win[:winWords-d], d)
	if sign == osign && (int64(s.win[winWords-1]) < 0) != sign {
		s.win = old
		return false
	}
	return true
}

// clone returns an independent copy (a register must never be shared
// between two growing states).
func (s *exactSum) clone() exactSum {
	c := *s
	if s.reg != nil {
		r := *s.reg
		c.reg = &r
	}
	return c
}

// round collapses the exact sum to the nearest float64, ties to even —
// the one place rounding happens. An overflowing finite sum rounds to
// ±Inf, which is the correctly-rounded result and is deterministic.
func (s *exactSum) round() float64 {
	switch {
	case s.nan || (s.pinf && s.ninf):
		return math.NaN()
	case s.pinf:
		return math.Inf(1)
	case s.ninf:
		return math.Inf(-1)
	case s.reg != nil:
		return roundWords(s.reg[:], 0)
	}
	return roundWords(s.win[:], 64*int(s.off))
}

// full returns the sum's finite part as a register-width N.
func (s *exactSum) full() (r [regWords]uint64) {
	if s.reg != nil {
		return *s.reg
	}
	addWords(r[:], s.win[:], int(s.off))
	return r
}

// addShifted adds m·2^sh to the two's-complement integer w (subtracts
// it when neg), modulo 2^(64·len(w)). The caller keeps m·2^sh inside w.
// It is the one addend kernel: the window and the register both use it.
func addShifted(w []uint64, m uint64, sh int, neg bool) {
	i, r := sh>>6, uint(sh&63)
	lo, hi := m<<r, m>>(63-r)>>1
	var c uint64
	if neg {
		w[i], c = bits.Sub64(w[i], lo, 0)
		for i++; i < len(w) && c|hi != 0; i++ {
			w[i], c = bits.Sub64(w[i], hi, c)
			hi = 0
		}
		return
	}
	w[i], c = bits.Add64(w[i], lo, 0)
	for i++; i < len(w) && c|hi != 0; i++ {
		w[i], c = bits.Add64(w[i], hi, c)
		hi = 0
	}
}

// addWords adds the two's-complement integer src, shifted up by at
// words, to dst, modulo 2^(64·len(dst)).
func addWords(dst, src []uint64, at int) {
	var c uint64
	for i, x := range src {
		dst[at+i], c = bits.Add64(dst[at+i], x, c)
	}
	ext := uint64(int64(src[len(src)-1]) >> 63)
	for i := at + len(src); i < len(dst) && c|ext != 0; i++ {
		dst[i], c = bits.Add64(dst[i], ext, c)
	}
}

// fitsWords reports whether w's signed value fits in its low n words.
func fitsWords(w []uint64, n int) bool {
	if n <= 0 {
		return false
	}
	ext := uint64(int64(w[n-1]) >> 63)
	for _, x := range w[n:] {
		if x != ext {
			return false
		}
	}
	return true
}

// negate replaces w with its two's-complement negation.
func negate(w []uint64) {
	c := uint64(1)
	for i := range w {
		w[i], c = bits.Add64(^w[i], 0, c)
	}
}

// roundWords rounds the two's-complement integer w·2^(base-1074) to the
// nearest float64, ties to even, without allocating.
func roundWords(w []uint64, base int) float64 {
	var buf [regWords]uint64
	mag := buf[:len(w)]
	copy(mag, w)
	neg := int64(w[len(w)-1]) < 0
	if neg {
		negate(mag)
	}
	top := -1
	for i := len(mag) - 1; i >= 0; i-- {
		if mag[i] != 0 {
			top = 64*i + 63 - bits.LeadingZeros64(mag[i])
			break
		}
	}
	if top < 0 {
		return 0
	}
	// Keep the top 53 bits of mag as m·2^sh; below them are the round
	// bit and the sticky bits.
	sh := max(top-52, 0)
	m := bitsAt(mag, sh) & (1<<53 - 1)
	if sh > 0 && bitsAt(mag, sh-1)&1 != 0 && (m&1 != 0 || belowNonZero(mag, sh-1)) {
		m++ // may carry to 2^53, which Ldexp takes as it is
	}
	// m < 2^54 is exact as a float64, and m·2^(base+sh-1074) is either
	// representable or beyond MaxFloat64, where Ldexp yields ±Inf.
	f := math.Ldexp(float64(m), base+sh-1074)
	if neg {
		f = -f
	}
	return f
}

// bitsAt returns the 64 bits of w starting at bit q.
func bitsAt(w []uint64, q int) uint64 {
	i, r := q>>6, uint(q&63)
	x := w[i] >> r
	if r != 0 && i+1 < len(w) {
		x |= w[i+1] << (64 - r)
	}
	return x
}

// belowNonZero reports whether any bit of w below bit q is set.
func belowNonZero(w []uint64, q int) bool {
	i := q >> 6
	if w[i]&(1<<uint(q&63)-1) != 0 {
		return true
	}
	for _, x := range w[:i] {
		if x != 0 {
			return true
		}
	}
	return false
}

const (
	sumFlagNaN  = 1 << 0
	sumFlagPInf = 1 << 1
	sumFlagNInf = 1 << 2
)

// encode serializes the accumulator: one flag byte followed by the
// gob encoding of the finite part as a prec-2176 big.Float (absent when
// it is zero). The gob encoding is deterministic for a given value and
// precision, so equal partials serialize identically.
func (s *exactSum) encode() []byte {
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
	r := s.full()
	neg := int64(r[regWords-1]) < 0
	if neg {
		negate(r[:])
	}
	var be [8 * regWords]byte
	for i, x := range r {
		binary.BigEndian.PutUint64(be[8*(regWords-1-i):], x)
	}
	n := new(big.Int).SetBytes(be[:])
	if n.Sign() == 0 {
		return out
	}
	f := new(big.Float).SetPrec(exactSumPrec).SetInt(n)
	f.SetMantExp(f, -1074)
	if neg {
		f.Neg(f)
	}
	gb, err := f.GobEncode()
	if err != nil {
		// Only possible for a nil receiver; f is non-nil here.
		panic(fmt.Sprintf("exec: exactSum gob encode: %v", err))
	}
	return append(out, gb...)
}

// decodeExactSum parses an encoded accumulator, rejecting hostile input
// (oversized payloads, unknown flags, non-finite finite-parts, and -0,
// values off the 2^-1074 grid or of magnitude 2^1101 or more — none of
// which an encoder produces) before allocating anything proportional to
// claimed sizes.
func decodeExactSum(b []byte) (exactSum, error) {
	var s exactSum
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
	rest := b[1:]
	if len(rest) == 0 {
		return s, nil
	}
	f := new(big.Float)
	if err := f.GobDecode(rest); err != nil {
		return exactSum{}, fmt.Errorf("exec: exact sum: %w", err)
	}
	if form := rest[1] >> 1 & 3; form > 1 { // neither zero nor finite
		return exactSum{}, fmt.Errorf("exec: exact sum finite part is not finite")
	}
	if f.Sign() == 0 {
		if f.Signbit() { // an exact sum of zero is +0
			return exactSum{}, fmt.Errorf("exec: exact sum is -0")
		}
		return s, nil
	}
	// |f| = 0.mant·2^exp: its top bit is 2^(exp-1), its lowest set bit
	// 2^(exp-MinPrec) — read off the mantissa, whatever prec f claims.
	exp := f.MantExp(nil)
	if exp > maxSumExp {
		return exactSum{}, fmt.Errorf("exec: exact sum magnitude 2^%d out of range", exp-1)
	}
	if exp-int(f.MinPrec()) < -1074 {
		return exactSum{}, fmt.Errorf("exec: exact sum is not a multiple of 2^-1074")
	}
	n, _ := new(big.Float).SetPrec(exactSumPrec).SetMantExp(f, 1074).Int(nil)
	var be [8 * regWords]byte
	n.FillBytes(be[:])
	var r [regWords]uint64
	for i := range r {
		r[i] = binary.BigEndian.Uint64(be[8*(regWords-1-i):])
	}
	if f.Sign() < 0 {
		negate(r[:])
	}
	// Into a window at r's lowest non-zero word when it fits there with
	// headroom, else into a register.
	lo := 0
	for lo < regWords-winWords && r[lo] == 0 {
		lo++
	}
	if fitsWords(r[lo:], winWords-1) {
		copy(s.win[:], r[lo:])
		s.off = int8(lo)
	} else {
		s.reg = new([regWords]uint64)
		*s.reg = r
	}
	return s, nil
}
