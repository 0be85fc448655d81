package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"htap/internal/exec"
	"htap/internal/types"
)

// legacyRange returns m's encoding as an older peer wrote it with an
// advisory key range: the range byte 1, then the column and the INT
// bounds, where today's encoders write a 0 range byte.
func legacyRange(m Fragment, col string, lo, hi int64) []byte {
	head := binary.AppendVarint(nil, m.Deadline)
	head = appendString(head, m.Table)
	head = binary.AppendUvarint(head, uint64(len(m.Cols)))
	for _, c := range m.Cols {
		head = appendString(head, c)
	}
	rest := m.Encode(nil)[len(head):]
	if rest[0] != 0 {
		panic("legacyRange: no range byte where expected")
	}
	out := appendString(append(head, 1), col)
	out = binary.AppendVarint(binary.AppendVarint(out, lo), hi)
	return append(out, rest[1:]...)
}

// rangePair is the pair of conjuncts an older peer's range decodes to.
func rangePair(col string, lo, hi int64) []exec.PushedPred {
	return []exec.PushedPred{
		{Kind: exec.PushCmp, Col: col, Op: exec.GE, Datum: types.NewInt(lo)},
		{Kind: exec.PushCmp, Col: col, Op: exec.LE, Datum: types.NewInt(hi)},
	}
}

// The trace/profile trailers must be invisible to old peers in both
// directions: a frame without trace context is byte-identical to the
// pre-trailer encoding (so old servers parse it unchanged), and a frame
// from an old peer — exactly the pre-trailer bytes — decodes to zero
// trailer fields.
func TestTraceTrailerBackwardCompat(t *testing.T) {
	// Old-style encodings, built by hand the way the pre-trailer code did.
	oldBegin := binary.AppendVarint(nil, 77)
	oldQuery := binary.AppendUvarint(binary.AppendVarint(nil, 77), 9)
	oldEOS := binary.AppendVarint(nil, 42)

	// Direction 1: untraced new encoders emit exactly the old bytes.
	if got := (Begin{Deadline: 77}).Encode(nil); !bytes.Equal(got, oldBegin) {
		t.Fatalf("untraced Begin not byte-identical to old encoding: %x vs %x", got, oldBegin)
	}
	if got := (Query{Deadline: 77, N: 9}).Encode(nil); !bytes.Equal(got, oldQuery) {
		t.Fatalf("untraced Query not byte-identical: %x vs %x", got, oldQuery)
	}
	if got := (EOS{Rows: 42}).Encode(nil); !bytes.Equal(got, oldEOS) {
		t.Fatalf("profile-less EOS not byte-identical: %x vs %x", got, oldEOS)
	}

	// A fragment without a range encodes as it always did: a 0 range
	// byte, no conjuncts, no spec.
	oldFrag := binary.AppendVarint(nil, 77)
	oldFrag = appendString(oldFrag, "stock")
	oldFrag = binary.AppendUvarint(oldFrag, 1)
	oldFrag = appendString(oldFrag, "s_i_id")
	oldFrag = append(oldFrag, 0, 0, 0)
	if got := (Fragment{Deadline: 77, Table: "stock", Cols: []string{"s_i_id"}}).Encode(nil); !bytes.Equal(got, oldFrag) {
		t.Fatalf("range-less Fragment not byte-identical: %x vs %x", got, oldFrag)
	}

	// Direction 2: old-peer bytes decode with zero trailer fields.
	if m, err := DecodeBegin(oldBegin); err != nil || m.TraceID != 0 || m.SpanID != 0 {
		t.Fatalf("old Begin decoded %+v, %v", m, err)
	}
	if m, err := DecodeQuery(oldQuery); err != nil || m.TraceID != 0 || m.Profile {
		t.Fatalf("old Query decoded %+v, %v", m, err)
	}
	if m, err := DecodeEOS(oldEOS); err != nil || m.HasProfile {
		t.Fatalf("old EOS decoded %+v, %v", m, err)
	}
}

// Traced and profiled frames round-trip losslessly.
func TestTraceTrailerRoundTrip(t *testing.T) {
	b := Begin{Deadline: -5, TraceID: 0xDEAD, SpanID: 0xBEEF}
	if got, err := DecodeBegin(b.Encode(nil)); err != nil || got != b {
		t.Fatalf("Begin round trip: %+v, %v", got, err)
	}
	q := Query{Deadline: 1, N: 22, TraceID: 7, SpanID: 8, Profile: true}
	if got, err := DecodeQuery(q.Encode(nil)); err != nil || got != q {
		t.Fatalf("Query round trip: %+v, %v", got, err)
	}
	// Profile without a trace still rides (trace IDs zero).
	q = Query{N: 3, Profile: true}
	if got, err := DecodeQuery(q.Encode(nil)); err != nil || !got.Profile || got.TraceID != 0 {
		t.Fatalf("profile-only Query round trip: %+v, %v", got, err)
	}
	f := Fragment{
		Deadline: 9, Table: "stock", Cols: []string{"s_i_id", "s_quantity"},
		TraceID: 11, SpanID: 12, Profile: true,
	}
	got, err := DecodeFragment(legacyRange(f, "s_quantity", 1, 10))
	if err != nil || got.TraceID != 11 || got.SpanID != 12 || !got.Profile ||
		got.Table != "stock" || len(got.Cols) != 2 || !reflect.DeepEqual(got.Preds, rangePair("s_quantity", 1, 10)) {
		t.Fatalf("Fragment round trip: %+v, %v", got, err)
	}
	e := EOS{Rows: 10, HasProfile: true, ExecNS: 123, AdmitNS: 45, SpillNS: 6,
		Profile: "profile: arch=A\nplan 1:\nscan(stock) [rows=10]"}
	if got, err := DecodeEOS(e.Encode(nil)); err != nil || got != e {
		t.Fatalf("EOS round trip: %+v, %v", got, err)
	}
}
