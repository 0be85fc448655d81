package wire

import (
	"bytes"
	"reflect"
	"testing"

	"htap/internal/exec"
	"htap/internal/types"
)

// rt checks the decode/encode/decode roundtrip for one message: a value
// that decoded successfully must re-encode to bytes that decode back to
// the identical value. Floats live as raw bits inside types.Datum, so
// reflect.DeepEqual is NaN-safe here.
func rt[M any](t *testing.T, m M, derr error, enc func(M) []byte, dec func([]byte) (M, error)) {
	t.Helper()
	if derr != nil {
		return // rejecting garbage is fine; only accepted values must roundtrip
	}
	b := enc(m)
	m2, err := dec(b)
	if err != nil {
		t.Fatalf("re-decode of accepted %T failed: %v\nvalue: %+v", m, err, m)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("roundtrip mismatch for %T:\nfirst:  %+v\nsecond: %+v", m, m, m2)
	}
}

// FuzzFrameDecode feeds arbitrary bytes through the full receive path a
// server or client runs on untrusted input: frame parsing, then the typed
// payload decoder for whatever message type the frame claims. Nothing may
// panic or over-allocate, and every accepted message must survive an
// encode/decode roundtrip bit-for-bit.
func FuzzFrameDecode(f *testing.F) {
	seed := func(typ byte, payload []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	row := types.Row{types.NewInt(42), types.NewFloat(3.25), types.NewString("morsel"), types.Null}
	seed(MsgHello, Hello{Version: Version}.Encode(nil))
	seed(MsgServerHello, ServerHello{Version: Version, Arch: 2, Meta: map[string]int64{"scale": 4, "hist": -9},
		Tables: []*types.Schema{types.NewSchema("item", 0, types.Column{Name: "i_id", Type: types.Int}, types.Column{Name: "i_name", Type: types.String})}}.Encode(nil))
	seed(MsgBegin, Begin{Deadline: 1700000000000000000}.Encode(nil))
	seed(MsgGet, KeyReq{Table: "orders", Key: -7}.Encode(nil))
	seed(MsgInsert, RowReq{Table: "order_line", Row: row}.Encode(nil))
	seed(MsgQuery, Query{Deadline: 1, N: 21}.Encode(nil))
	// Type 10 is the retired MsgScan (corpus file seed-04 is a frame an old
	// client sent): no decoder claims it, whatever the payload looks like.
	seed(10, legacyRange(Fragment{Table: "item", Cols: []string{"i_id", "i_price"}}, "i_id", -3, 900))
	seed(MsgSchema, Schema{Cols: []types.Column{{Name: "k", Type: types.Int}, {Name: "v", Type: types.String}}}.Encode(nil))
	seed(MsgBatch, Batch{Rows: []types.Row{row, {types.NewString("")}}}.Encode(nil))
	seed(MsgEOS, EOS{Rows: 1 << 40}.Encode(nil))
	seed(MsgFreshnessInfo, Freshness{CommitTS: 10, AppliedTS: 8, LagTS: 2, LagNS: 5000}.Encode(nil))
	seed(MsgError, EncodeError(nil, &Error{Code: CodeConflict, Msg: "write-write conflict"}))
	seed(MsgCommit, nil)
	seed(MsgPrepare, Prepare{Deadline: 1700000000000000000, TraceID: 7, SpanID: 9}.Encode(nil))
	// An older peer's range ahead of the three conjunct kinds.
	seed(MsgFragment, legacyRange(Fragment{
		Deadline: 2, Table: "order_line", Cols: []string{"ol_w_id", "ol_amount"},
		Preds: []exec.PushedPred{
			{Kind: exec.PushCmp, Col: "ol_amount", Op: exec.GT, Datum: types.NewFloat(0.25)},
			{Kind: exec.PushPrefix, Col: "ol_dist_info", Prefix: "ab"},
			{Kind: exec.PushInSet, Col: "ol_number", Ints: []int64{-3, 0, 7}},
		},
	}, "ol_key", 16, 1<<40))
	seed(MsgFragment, Fragment{
		Table: "order_line", Cols: []string{"ol_number", "ol_amount"},
		Agg: &FragAgg{GroupBy: []string{"ol_number"}, Aggs: []FragAggFn{
			{Kind: 1, Col: "ol_amount"}, {Kind: 2}, {Kind: 3, Col: "ol_amount"},
		}},
	}.Encode(nil))
	seed(MsgFragment, Fragment{
		Table: "customer", Cols: []string{"c_balance", "c_id"},
		TopK: &FragTopK{K: 10, Keys: []exec.SortKey{{Col: "c_balance", Desc: true}, {Col: "c_id"}}},
	}.Encode(nil))
	// A partial-state frame shaped like exec.EncodePartial output: group
	// key, then per aggregate the exact-sum bytes, integer sum, count,
	// min, max.
	seed(MsgPartial, Partial{Groups: []types.Row{{
		types.NewInt(7),
		types.NewString("\x00\x08\x0a\x00\x01\x02"), types.NewInt(0), types.NewInt(3),
		types.NewFloat(0.25), types.NewFloat(9.5),
	}}}.Encode(nil))
	// Hostile partial headers: a group count of 2^40 over an empty tail,
	// and a single group whose row claims 2^32 columns.
	seed(MsgPartial, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f})
	seed(MsgPartial, []byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f})
	seed(MsgRebalance, Rebalance{Deadline: 1700000000000000000, Lo: 2, Hi: 5, Dest: 1}.Encode(nil))
	seed(MsgRebalanceInfo, RebalanceInfo{Moved: 1 << 33, Version: 4}.Encode(nil))
	// Hostile fragment headers: a predicate list claiming 2^28 entries on
	// an empty tail, and an IN-set claiming 2^30 values.
	seed(MsgFragment, append(Fragment{Table: "t"}.Encode(nil)[:4], 0x00, 0xff, 0xff, 0xff, 0x7f))
	seed(MsgFragment, append(Fragment{Table: "t"}.Encode(nil)[:4], 0x00, 0x01, 0x03, 0x01, 'x', 0xff, 0xff, 0xff, 0xff, 0x03))
	// Hostile headers the decoders must reject cheaply: a row claiming 2^32
	// columns, and a string claiming a length that overflows int.
	seed(MsgBatch, []byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f})
	seed(MsgInsert, append([]byte{0x01, 'x', 0x01, 0x03}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Frame layer roundtrip: what we read must re-frame and re-read.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-frame failed: %v", err)
		}
		typ2, payload2, err := ReadFrame(&buf)
		if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame roundtrip: (%d, %x, %v) != (%d, %x)", typ2, payload2, err, typ, payload)
		}

		switch typ {
		case MsgHello:
			m, err := DecodeHello(payload)
			rt(t, m, err, func(m Hello) []byte { return m.Encode(nil) }, DecodeHello)
		case MsgServerHello:
			m, err := DecodeServerHello(payload)
			rt(t, m, err, func(m ServerHello) []byte { return m.Encode(nil) }, DecodeServerHello)
		case MsgBegin:
			m, err := DecodeBegin(payload)
			rt(t, m, err, func(m Begin) []byte { return m.Encode(nil) }, DecodeBegin)
		case MsgGet, MsgDelete:
			m, err := DecodeKeyReq(payload)
			rt(t, m, err, func(m KeyReq) []byte { return m.Encode(nil) }, DecodeKeyReq)
		case MsgInsert, MsgUpdate:
			m, err := DecodeRowReq(payload)
			rt(t, m, err, func(m RowReq) []byte { return m.Encode(nil) }, DecodeRowReq)
		case MsgQuery:
			m, err := DecodeQuery(payload)
			rt(t, m, err, func(m Query) []byte { return m.Encode(nil) }, DecodeQuery)
		case MsgPrepare:
			m, err := DecodePrepare(payload)
			rt(t, m, err, func(m Prepare) []byte { return m.Encode(nil) }, DecodePrepare)
		case MsgFragment:
			m, err := DecodeFragment(payload)
			rt(t, m, err, func(m Fragment) []byte { return m.Encode(nil) }, DecodeFragment)
		case MsgSchema:
			m, err := DecodeSchema(payload)
			rt(t, m, err, func(m Schema) []byte { return m.Encode(nil) }, DecodeSchema)
		case MsgRow, MsgBatch:
			m, err := DecodeBatch(payload)
			rt(t, m, err, func(m Batch) []byte { return m.Encode(nil) }, DecodeBatch)
		case MsgPartial:
			m, err := DecodePartial(payload)
			rt(t, m, err, func(m Partial) []byte { return m.Encode(nil) }, DecodePartial)
		case MsgRebalance:
			m, err := DecodeRebalance(payload)
			rt(t, m, err, func(m Rebalance) []byte { return m.Encode(nil) }, DecodeRebalance)
		case MsgRebalanceInfo:
			m, err := DecodeRebalanceInfo(payload)
			rt(t, m, err, func(m RebalanceInfo) []byte { return m.Encode(nil) }, DecodeRebalanceInfo)
		case MsgEOS:
			m, err := DecodeEOS(payload)
			rt(t, m, err, func(m EOS) []byte { return m.Encode(nil) }, DecodeEOS)
		case MsgFreshnessInfo:
			m, err := DecodeFreshness(payload)
			rt(t, m, err, func(m Freshness) []byte { return m.Encode(nil) }, DecodeFreshness)
		case MsgError:
			// DecodeError never fails; garbled payloads become a usable
			// internal error. Well-formed ones must roundtrip.
			e := DecodeError(payload)
			if e == nil {
				t.Fatal("DecodeError returned nil")
			}
			e2 := DecodeError(EncodeError(nil, e))
			if *e != *e2 {
				t.Fatalf("error roundtrip: %+v != %+v", e, e2)
			}
		}
	})
}
