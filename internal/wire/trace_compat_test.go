package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

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
		HasPred: true, PredCol: "s_quantity", PredLo: 1, PredHi: 10,
		TraceID: 11, SpanID: 12, Profile: true,
	}
	got, err := DecodeFragment(f.Encode(nil))
	if err != nil || got.TraceID != 11 || got.SpanID != 12 || !got.Profile ||
		got.Table != "stock" || len(got.Cols) != 2 || !got.HasPred {
		t.Fatalf("Fragment round trip: %+v, %v", got, err)
	}
	e := EOS{Rows: 10, HasProfile: true, ExecNS: 123, AdmitNS: 45, SpillNS: 6,
		Profile: "profile: arch=A\nplan 1:\nscan(stock) [rows=10]"}
	if got, err := DecodeEOS(e.Encode(nil)); err != nil || got != e {
		t.Fatalf("EOS round trip: %+v, %v", got, err)
	}
}
