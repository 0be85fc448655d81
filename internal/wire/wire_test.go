package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"htap/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello payload")
	if err := WriteFrame(&buf, MsgBatch, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgBatch || !bytes.Equal(got, payload) {
		t.Fatalf("got type %d payload %q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgCommit, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgCommit || len(got) != 0 {
		t.Fatalf("got type %d payload %q", typ, got)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgOK, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, _, err := ReadFrame(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("want error for truncated frame")
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF for empty stream, got %v", err)
	}
}

func TestFrameBadLength(t *testing.T) {
	// Length 0 is invalid (the type byte is part of the count).
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0, 0})); err == nil {
		t.Fatal("want error for zero length")
	}
	// A corrupt giant length must fail before allocating.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 1})); err == nil {
		t.Fatal("want error for oversized length")
	}
}

func row(vals ...interface{}) types.Row {
	r := make(types.Row, 0, len(vals))
	for _, v := range vals {
		switch x := v.(type) {
		case int:
			r = append(r, types.NewInt(int64(x)))
		case float64:
			r = append(r, types.NewFloat(x))
		case string:
			r = append(r, types.NewString(x))
		}
	}
	return r
}

func TestMessageRoundTrips(t *testing.T) {
	t.Run("hello", func(t *testing.T) {
		got, err := DecodeHello(Hello{Version: 7}.Encode(nil))
		if err != nil || got.Version != 7 {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("server-hello", func(t *testing.T) {
		in := ServerHello{Version: 1, Arch: 3, Meta: map[string]int64{"warehouses": 4, "hkey": -9}}
		got, err := DecodeServerHello(in.Encode(nil))
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v err %v", got, err)
		}
		in.Tables = []*types.Schema{types.NewSchema("acct", 1,
			types.Column{Name: "note", Type: types.String},
			types.Column{Name: "id", Type: types.Int},
			types.Column{Name: "bal", Type: types.Float})}
		got, err = DecodeServerHello(in.Encode(nil))
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("with tables: got %+v err %v", got, err)
		}
	})
	t.Run("begin", func(t *testing.T) {
		got, err := DecodeBegin(Begin{Deadline: 123456789}.Encode(nil))
		if err != nil || got.Deadline != 123456789 {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("key-req", func(t *testing.T) {
		in := KeyReq{Table: "orders", Key: -42}
		got, err := DecodeKeyReq(in.Encode(nil))
		if err != nil || got != in {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("row-req", func(t *testing.T) {
		in := RowReq{Table: "customer", Row: row(1, 2.5, "BARBAR")}
		got, err := DecodeRowReq(in.Encode(nil))
		if err != nil || got.Table != in.Table || !reflect.DeepEqual(got.Row, in.Row) {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("query", func(t *testing.T) {
		in := Query{Deadline: 99, N: 21}
		got, err := DecodeQuery(in.Encode(nil))
		if err != nil || got != in {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("fragment-plain-scan", func(t *testing.T) {
		in := Fragment{Deadline: 5, Table: "order_line", Cols: []string{"ol_i_id", "ol_quantity"}}
		got, err := DecodeFragment(legacyRange(in, "ol_i_id", -10, 500))
		in.Preds = rangePair("ol_i_id", -10, 500)
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v err %v", got, err)
		}
		got, err = DecodeFragment(in.Encode(nil))
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("re-encoded: got %+v err %v", got, err)
		}
	})
	t.Run("fragment-all-columns", func(t *testing.T) {
		in := Fragment{Table: "stock"}
		got, err := DecodeFragment(in.Encode(nil))
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("schema", func(t *testing.T) {
		in := Schema{Cols: []types.Column{{Name: "a", Type: types.Int}, {Name: "b", Type: types.String}}}
		got, err := DecodeSchema(in.Encode(nil))
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("batch", func(t *testing.T) {
		in := Batch{Rows: []types.Row{row(1, "x"), row(2, "y"), row(3, 1.25)}}
		got, err := DecodeBatch(in.Encode(nil))
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("eos", func(t *testing.T) {
		got, err := DecodeEOS(EOS{Rows: 1 << 40}.Encode(nil))
		if err != nil || got.Rows != 1<<40 {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
	t.Run("freshness", func(t *testing.T) {
		in := Freshness{CommitTS: 100, AppliedTS: 90, LagTS: 10, LagNS: 5_000_000}
		got, err := DecodeFreshness(in.Encode(nil))
		if err != nil || got != in {
			t.Fatalf("got %+v err %v", got, err)
		}
	})
}

func TestDecodeTruncatedPayloads(t *testing.T) {
	full := legacyRange(Fragment{Table: "t", Cols: []string{"a"}}, "a", 1, 2)
	if m, err := DecodeFragment(full); err != nil || !reflect.DeepEqual(m.Preds, rangePair("a", 1, 2)) {
		t.Fatalf("full payload decoded %+v, %v", m, err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeFragment(full[:cut]); err == nil && cut < len(full)-1 {
			// Some prefixes decode cleanly (e.g. before the pred flag the
			// flag byte is required, so only the full payload may pass).
			t.Logf("prefix %d decoded without error", cut)
		}
	}
	if _, err := DecodeRowReq([]byte{}); err == nil {
		t.Fatal("want error decoding empty row request")
	}
}

func TestErrorRoundTripAndRetryability(t *testing.T) {
	for _, tc := range []struct {
		code      uint8
		retryable bool
	}{
		{CodeInternal, false},
		{CodeBadRequest, false},
		{CodeNotFound, false},
		{CodeConflict, true},
		{CodeOverloaded, true},
		{CodeShutdown, true},
		{CodeCanceled, false},
		{CodeDuplicate, false},
	} {
		in := &Error{Code: tc.code, Msg: "m"}
		got := DecodeError(EncodeError(nil, in))
		if got.Code != in.Code || got.Msg != in.Msg {
			t.Fatalf("code %d: got %+v", tc.code, got)
		}
		if got.Retryable() != tc.retryable {
			t.Fatalf("code %d: retryable = %v, want %v", tc.code, got.Retryable(), tc.retryable)
		}
	}
}

func TestErrorIsMatchesByCode(t *testing.T) {
	err := DecodeError(EncodeError(nil, &Error{Code: CodeOverloaded, Msg: "olap bucket empty"}))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("decoded shed error must match ErrOverloaded")
	}
	if errors.Is(err, ErrShutdown) {
		t.Fatal("shed error must not match ErrShutdown")
	}
	// And through wrapping.
	wrapped := &Error{Code: CodeOverloaded, Msg: "other text"}
	if !errors.Is(wrapped, ErrOverloaded) {
		t.Fatal("wrapped shed must match sentinel")
	}
}

func TestErrorRetryableInterfaceCrossesLayers(t *testing.T) {
	// core.Exec discovers retryability via errors.As on an anonymous
	// interface; make sure the wire error satisfies it.
	var r interface{ Retryable() bool }
	err := error(&Error{Code: CodeConflict, Msg: "write-write"})
	if !errors.As(err, &r) || !r.Retryable() {
		t.Fatal("wire error must expose Retryable through errors.As")
	}
}

func TestErrorReasonRoundTrip(t *testing.T) {
	in := Overloaded("memory")
	got := DecodeError(EncodeError(nil, in))
	if got.Code != CodeOverloaded || got.Reason != "memory" {
		t.Fatalf("round trip = %+v", got)
	}
	if !errors.Is(got, ErrOverloaded) {
		t.Fatal("reasoned shed must still match ErrOverloaded")
	}
	// Backward compatibility both ways: an old-format payload (no trailing
	// reason) decodes with an empty reason, and a reasonless error encodes
	// to the exact old byte layout.
	old := DecodeError(EncodeError(nil, &Error{Code: CodeOverloaded, Msg: "server overloaded"}))
	if old.Reason != "" {
		t.Fatalf("legacy payload grew a reason: %q", old.Reason)
	}
	legacy := append([]byte{CodeOverloaded}, 17)
	legacy = append(legacy, "server overloaded"...)
	if got := DecodeError(legacy); got.Msg != "server overloaded" || got.Reason != "" {
		t.Fatalf("hand-built legacy frame = %+v", got)
	}
}
