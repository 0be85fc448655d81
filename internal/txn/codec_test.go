package txn

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"htap/internal/types"
)

// decodeAll decodes back-to-back writes, as a 2PC command carries them.
func decodeAll(b []byte, n int) ([]Write, error) {
	ws := make([]Write, 0, n)
	for i := 0; i < n; i++ {
		w, used, err := DecodeWrite(b)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
		b = b[used:]
	}
	return ws, nil
}

func TestWriteCodecRoundTrip(t *testing.T) {
	ws := []Write{
		{Table: 1, Key: 10, Op: OpUpdate, Row: types.Row{types.NewInt(10), types.NewString("a")}},
		{Table: 2, Key: -5, Op: OpDelete},
	}
	var buf []byte
	for _, w := range ws {
		buf = AppendWrite(buf, w)
	}
	got, err := decodeAll(buf, len(ws))
	if err != nil || len(got) != 2 {
		t.Fatalf("decode = (%v, %v)", got, err)
	}
	if got[0].Key != 10 || got[0].Row[1].Str() != "a" {
		t.Fatalf("write 0 = %+v", got[0])
	}
	if got[1].Op != OpDelete || got[1].Key != -5 || got[1].Row != nil {
		t.Fatalf("write 1 = %+v", got[1])
	}
}

func TestQuickWriteCodec(t *testing.T) {
	f := func(keys []int64) bool {
		ws := make([]Write, len(keys))
		var buf []byte
		for i, k := range keys {
			ws[i] = Write{Table: uint32(i), Key: k, Op: OpUpdate, Row: types.Row{types.NewInt(k)}}
			buf = AppendWrite(buf, ws[i])
		}
		got, err := decodeAll(buf, len(ws))
		return err == nil && reflect.DeepEqual(got, ws)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// decodeAllocs reports the bytes one DecodeWrite of data allocates: the
// least of three runs, so what other goroutines of a fuzzing process
// allocate meanwhile does not count.
func decodeAllocs(data []byte) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _ = DecodeWrite(data)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzDecodeWrite hammers the one write codec that WAL records, 2PC
// commands and log-delta entries share. Corrupt input must be an error —
// never a panic, never an allocation sized by a length the input claims —
// and every accepted write must re-encode to bytes that decode to the same
// write.
func FuzzDecodeWrite(f *testing.F) {
	row := types.Row{types.NewInt(-5), types.NewFloat(2.5), types.NewString("x"), types.Null}
	insert := AppendWrite(nil, Write{Table: 3, Op: OpInsert, Key: 10, Row: row})
	f.Add(insert)
	f.Add(AppendWrite(nil, Write{Table: 1, Op: OpUpdate, Key: -7, Row: types.Row{types.NewString("")}}))
	f.Add(AppendWrite(nil, Write{Table: 2, Op: OpDelete, Key: 1 << 40}))
	f.Add(AppendWrite(nil, Write{Op: OpDelete + 1})) // a WAL COMMIT record's write
	f.Add(insert[:6])                                // cut short inside the row
	// An insert whose row claims 2^32-1 columns with nothing behind them.
	f.Add([]byte{byte(OpInsert), 1, 2, 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, data []byte) {
		// A datum takes at least one input byte and 32 bytes decoded.
		if got, limit := decodeAllocs(data), uint64(64*len(data)+4096); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		w, n, err := DecodeWrite(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc := AppendWrite(nil, w)
		w2, n2, err := DecodeWrite(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v (write %+v)", err, w)
		}
		if n2 != len(enc) {
			t.Fatalf("canonical encoding: consumed %d of %d bytes", n2, len(enc))
		}
		if !reflect.DeepEqual(w, w2) {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", w, w2)
		}
		if enc2 := AppendWrite(nil, w2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode not canonical: %x vs %x", enc, enc2)
		}
	})
}
