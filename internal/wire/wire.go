// Package wire defines the binary client/server protocol of the network
// service layer: length-prefixed frames carrying a handshake, OLTP
// transaction operations, typed analytical queries with streamed result
// batches, and typed errors whose retryability survives the trip across
// the network.
//
// Frame layout:
//
//	4 bytes  big-endian payload length (includes the type byte)
//	1 byte   message type
//	n bytes  payload
//
// Payload scalars are varints (signed values) and uvarints (counts,
// lengths); strings are uvarint length + bytes; rows reuse the
// types.AppendRow encoding shared with the WAL and Raft log. Deadlines
// travel as absolute unix nanoseconds so the server can rebuild the
// client's context deadline without clock-free duration guesswork; zero
// means no deadline.
//
// The protocol is strictly request/response per connection: after sending
// a request the client stays silent until the full response (for queries:
// schema, batches, end-of-stream) has arrived. That silence is load-bearing
// — it lets the server treat any readable byte or EOF during query
// execution as "the client is gone" and cancel the scan mid-batch.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"htap/internal/types"
)

// Version is the protocol version exchanged in the handshake.
const Version = 1

// MaxFrame bounds a single frame's payload, a guard against corrupt
// length prefixes allocating gigabytes.
const MaxFrame = 64 << 20

// Message types. Client-to-server requests first, server-to-client
// responses second.
const (
	// MsgHello opens a connection: Hello{Version}.
	MsgHello byte = iota + 1
	// MsgBegin starts the session's transaction: Begin{Deadline}.
	MsgBegin
	// MsgGet reads one row in the open transaction: KeyReq{Table, Key}.
	MsgGet
	// MsgInsert inserts a row: RowReq{Table, Row}.
	MsgInsert
	// MsgUpdate updates a row: RowReq{Table, Row}.
	MsgUpdate
	// MsgDelete deletes by key: KeyReq{Table, Key}.
	MsgDelete
	// MsgCommit commits the open transaction (empty payload).
	MsgCommit
	// MsgAbort aborts the open transaction (empty payload).
	MsgAbort
	// MsgQuery runs CH query N server-side: Query{Deadline, N}. The
	// response is a batch stream.
	MsgQuery
	// 10 was MsgScan, a table scan; a MsgFragment with no pushed-down work
	// is that scan, so the type is retired. Its number stays burnt: a peer
	// that still sends it gets a bad-request error, not another request.
	_
	// MsgSync forces a data-synchronization round (empty payload).
	MsgSync
	// MsgFreshness asks for the OLTP-vs-OLAP watermark gap.
	MsgFreshness

	// MsgServerHello answers MsgHello: ServerHello{Version, Arch, Meta}.
	MsgServerHello
	// MsgOK acknowledges a write, commit, abort, or sync (empty payload).
	MsgOK
	// MsgRow answers MsgGet: Batch with exactly one row.
	MsgRow
	// MsgSchema opens a batch stream: Schema{Cols}.
	MsgSchema
	// MsgBatch carries result rows: Batch{Rows}.
	MsgBatch
	// MsgEOS closes a batch stream: EOS{Rows}.
	MsgEOS
	// MsgFreshnessInfo answers MsgFreshness: Freshness{...}.
	MsgFreshnessInfo
	// MsgError reports a failure: Error{Code, Msg}. For requests it ends
	// the exchange; inside a batch stream it ends the stream.
	MsgError

	// Requests added after the first release are appended here so every
	// existing type keeps its number on the wire.

	// MsgPrepare votes the session's open transaction in a two-phase
	// commit: Prepare{Deadline}. MsgOK is a yes vote — every operation the
	// transaction forwarded has been applied and validated, and the
	// session holds its locks until MsgCommit or MsgAbort resolves it.
	MsgPrepare
	// MsgFragment streams a scatter–gather plan fragment: a table scan
	// with pushed-down predicate conjuncts the shard evaluates on its
	// encoded segments. The response is a batch stream.
	// A fragment may additionally carry an aggregate spec (the response
	// becomes a MsgPartial stream) or a top-k spec (the response stays a
	// batch stream bounded to k rows).
	MsgFragment
	// MsgPartial carries serialized partial-aggregation groups produced
	// by a fragment with an aggregate spec: Partial{Groups}. Zero or more
	// MsgPartial frames are followed by MsgEOS, whose row count is the
	// total group count.
	MsgPartial
	// MsgRebalance asks a coordinator to move a warehouse range to
	// another shard: Rebalance{Deadline, Lo, Hi, Dest}. Answered by
	// MsgRebalanceInfo or MsgError.
	MsgRebalance
	// MsgRebalanceInfo answers MsgRebalance: RebalanceInfo{Moved,
	// Version} — rows moved and the new routing-table version.
	MsgRebalanceInfo
)

// Admission classes label requests for the server's per-class token
// buckets.
const (
	ClassOLTP = "oltp"
	ClassOLAP = "olap"
)

// Error codes.
const (
	CodeInternal   uint8 = 1 // non-retryable server failure
	CodeBadRequest uint8 = 2 // malformed or out-of-order frame
	CodeNotFound   uint8 = 3 // read, update or delete of an absent key
	CodeConflict   uint8 = 4 // transaction conflict; retry with backoff
	CodeOverloaded uint8 = 5 // admission control shed the request
	CodeShutdown   uint8 = 6 // server is draining
	CodeCanceled   uint8 = 7 // context cancelled or deadline exceeded
	CodeDuplicate  uint8 = 8 // insert of a live key
)

// Error is the protocol's typed error. It crosses the wire as an Error
// frame and reconstructs on the client with its code intact, so
// core.Exec's retry loop (which asks errors.As for Retryable) treats a
// remote conflict exactly like a local one.
//
// Reason optionally qualifies the code — overloaded sheds carry "rate" vs
// "memory" so clients can back off appropriately (a rate shed clears in
// milliseconds; memory pressure needs a longer pause). It rides the frame
// as a trailing string that old decoders never read and new decoders treat
// as absent when missing, so both directions stay compatible.
type Error struct {
	Code   uint8
	Msg    string
	Reason string
}

// Sentinel errors for errors.Is. ErrOverloaded is the admission-control
// shed signal the benchmark driver and tests match on.
var (
	ErrOverloaded = &Error{Code: CodeOverloaded, Msg: "server overloaded"}
	ErrNotFound   = &Error{Code: CodeNotFound, Msg: "key not found"}
	ErrShutdown   = &Error{Code: CodeShutdown, Msg: "server draining"}
)

func (e *Error) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("wire: %s (code %d, reason %s)", e.Msg, e.Code, e.Reason)
	}
	return fmt.Sprintf("wire: %s (code %d)", e.Msg, e.Code)
}

// Overloaded builds a shed error carrying a typed reason ("rate",
// "memory"). It matches ErrOverloaded under errors.Is.
func Overloaded(reason string) *Error {
	return &Error{Code: CodeOverloaded, Msg: "server overloaded", Reason: reason}
}

// Retryable reports whether the failure is transient: conflicts and
// admission sheds clear on retry; a draining server clears when a
// replacement starts accepting.
func (e *Error) Retryable() bool {
	switch e.Code {
	case CodeConflict, CodeOverloaded, CodeShutdown:
		return true
	}
	return false
}

// Is matches two wire errors by code, so errors.Is(err, wire.ErrOverloaded)
// holds for any shed regardless of message text.
func (e *Error) Is(target error) bool {
	var t *Error
	return errors.As(target, &t) && t.Code == e.Code
}

// --- frame I/O ---

// WriteFrame writes one frame. The header and payload go out in a single
// Write so a buffered writer flushes them together.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("wire: frame too large: %d bytes", len(payload))
	}
	buf := make([]byte, 0, 5+len(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)+1))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame, returning its type and payload.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: bad frame length %d", n)
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return hdr[4], payload, nil
}

// --- payload encoding ---

// A dec walks a payload. Methods record the first failure; callers check
// Err once at the end instead of after every field.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated %s", what)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail("string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("byte")
		return 0
	}
	b := d.b[0]
	d.b = d.b[1:]
	return b
}

func (d *dec) row() types.Row {
	if d.err != nil {
		return nil
	}
	r, n, err := types.DecodeRow(d.b)
	if err != nil {
		d.err = err
		return nil
	}
	d.b = d.b[n:]
	return r
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Hello is the client handshake.
type Hello struct {
	Version uint32
}

// Encode appends the payload encoding.
func (h Hello) Encode(dst []byte) []byte {
	return binary.AppendUvarint(dst, uint64(h.Version))
}

// DecodeHello parses a MsgHello payload.
func DecodeHello(b []byte) (Hello, error) {
	d := &dec{b: b}
	h := Hello{Version: uint32(d.uvarint())}
	return h, d.err
}

// ServerHello is the server handshake: the engine's architecture plus a
// small integer-valued metadata map. htapd advertises its dataset scale
// and the history-key watermark there, so a remote benchmark driver can
// rebuild its client-side directories without re-reading the tables.
type ServerHello struct {
	Version uint32
	Arch    uint8
	Meta    map[string]int64
}

// Encode appends the payload encoding. Map order is not canonicalized;
// decode order is irrelevant.
func (h ServerHello) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Version))
	dst = append(dst, h.Arch)
	dst = binary.AppendUvarint(dst, uint64(len(h.Meta)))
	for k, v := range h.Meta {
		dst = appendString(dst, k)
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// DecodeServerHello parses a MsgServerHello payload.
func DecodeServerHello(b []byte) (ServerHello, error) {
	d := &dec{b: b}
	h := ServerHello{Version: uint32(d.uvarint()), Arch: d.byte()}
	n := d.uvarint()
	if d.err == nil && n > 0 {
		// Each entry costs at least two bytes (key length prefix plus a
		// varint value); a larger count is corrupt, and sizing the map from
		// it would let a hostile header allocate gigabytes.
		if n > uint64(len(d.b))/2 {
			return h, fmt.Errorf("wire: meta count %d exceeds payload", n)
		}
		h.Meta = make(map[string]int64, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			k := d.str()
			h.Meta[k] = d.varint()
		}
	}
	return h, d.err
}

// Begin opens a transaction with an optional absolute deadline.
//
// TraceID/SpanID ride after the deadline only when set, like
// Error.Reason: decoders predating trace propagation ignore trailing
// bytes, and old encoders simply omit them.
type Begin struct {
	Deadline int64  // unix nanoseconds; 0 = none
	TraceID  uint64 // originating trace; 0 = untraced
	SpanID   uint64 // caller's span, parent for the server-side span
}

// Encode appends the payload encoding.
func (m Begin) Encode(dst []byte) []byte {
	dst = binary.AppendVarint(dst, m.Deadline)
	if m.TraceID != 0 {
		dst = binary.AppendUvarint(dst, m.TraceID)
		dst = binary.AppendUvarint(dst, m.SpanID)
	}
	return dst
}

// DecodeBegin parses a MsgBegin payload.
func DecodeBegin(b []byte) (Begin, error) {
	d := &dec{b: b}
	m := Begin{Deadline: d.varint()}
	if d.err == nil && len(d.b) > 0 {
		m.TraceID = d.uvarint()
		m.SpanID = d.uvarint()
		if m.TraceID == 0 {
			// A span without a trace is meaningless; canonicalize to the
			// untraced form the encoder would have produced.
			m.SpanID = 0
		}
	}
	return m, d.err
}

// KeyReq addresses one row by table and packed primary key (MsgGet,
// MsgDelete).
type KeyReq struct {
	Table string
	Key   int64
}

// Encode appends the payload encoding.
func (m KeyReq) Encode(dst []byte) []byte {
	dst = appendString(dst, m.Table)
	return binary.AppendVarint(dst, m.Key)
}

// DecodeKeyReq parses a MsgGet or MsgDelete payload.
func DecodeKeyReq(b []byte) (KeyReq, error) {
	d := &dec{b: b}
	m := KeyReq{Table: d.str(), Key: d.varint()}
	return m, d.err
}

// RowReq carries one row write (MsgInsert, MsgUpdate).
type RowReq struct {
	Table string
	Row   types.Row
}

// Encode appends the payload encoding.
func (m RowReq) Encode(dst []byte) []byte {
	dst = appendString(dst, m.Table)
	return types.AppendRow(dst, m.Row)
}

// DecodeRowReq parses a MsgInsert or MsgUpdate payload.
func DecodeRowReq(b []byte) (RowReq, error) {
	d := &dec{b: b}
	m := RowReq{Table: d.str(), Row: d.row()}
	return m, d.err
}

// queryFlagProfile asks the server to profile execution and return the
// rendered plan in the EOS trailer.
const queryFlagProfile = 1 << 0

// appendTraceCtx appends the optional [TraceID, SpanID, flags] trailer
// shared by Query and Fragment, but only when there is something to say —
// frames to old servers stay byte-identical.
func appendTraceCtx(dst []byte, traceID, spanID uint64, profile bool) []byte {
	if traceID == 0 && !profile {
		return dst
	}
	dst = binary.AppendUvarint(dst, traceID)
	dst = binary.AppendUvarint(dst, spanID)
	var flags byte
	if profile {
		flags |= queryFlagProfile
	}
	return append(dst, flags)
}

// Query runs CH-benCHmark query N (1..22) server-side.
//
// The trace/profile trailer is optional and trailing (see Begin); old
// decoders never read it, old encoders never write it.
type Query struct {
	Deadline int64
	N        uint32
	TraceID  uint64
	SpanID   uint64
	Profile  bool // request an EOS profile trailer
}

// Encode appends the payload encoding.
func (m Query) Encode(dst []byte) []byte {
	dst = binary.AppendVarint(dst, m.Deadline)
	dst = binary.AppendUvarint(dst, uint64(m.N))
	return appendTraceCtx(dst, m.TraceID, m.SpanID, m.Profile)
}

// DecodeQuery parses a MsgQuery payload.
func DecodeQuery(b []byte) (Query, error) {
	d := &dec{b: b}
	m := Query{Deadline: d.varint(), N: uint32(d.uvarint())}
	decodeTraceCtx(d, &m.TraceID, &m.SpanID, &m.Profile)
	return m, d.err
}

// decodeTraceCtx reads the optional trailing [TraceID, SpanID, flags]
// context, canonicalizing a meaningless trailer (no trace, no flags) to
// the form appendTraceCtx would have produced — the empty one.
func decodeTraceCtx(d *dec, traceID, spanID *uint64, profile *bool) {
	if d.err != nil || len(d.b) == 0 {
		return
	}
	*traceID = d.uvarint()
	*spanID = d.uvarint()
	*profile = d.byte()&queryFlagProfile != 0
	if *traceID == 0 && !*profile {
		*spanID = 0
	}
}

// Prepare asks the session to vote on its open transaction (MsgPrepare):
// MsgOK means every forwarded operation applied and validated and the
// transaction's locks are held pending the coordinator's MsgCommit or
// MsgAbort; MsgError is a no vote. The trace trailer follows the Begin
// convention: optional, trailing, absent when untraced.
type Prepare struct {
	Deadline int64
	TraceID  uint64
	SpanID   uint64
}

// Encode appends the payload encoding.
func (m Prepare) Encode(dst []byte) []byte {
	dst = binary.AppendVarint(dst, m.Deadline)
	if m.TraceID != 0 {
		dst = binary.AppendUvarint(dst, m.TraceID)
		dst = binary.AppendUvarint(dst, m.SpanID)
	}
	return dst
}

// DecodePrepare parses a MsgPrepare payload.
func DecodePrepare(b []byte) (Prepare, error) {
	d := &dec{b: b}
	m := Prepare{Deadline: d.varint()}
	if d.err == nil && len(d.b) > 0 {
		m.TraceID = d.uvarint()
		m.SpanID = d.uvarint()
		if m.TraceID == 0 {
			m.SpanID = 0
		}
	}
	return m, d.err
}

// Pushable predicate kinds carried by a Fragment, mirroring
// exec.PushedPred: a column⊗constant comparison, a string prefix, or an
// int IN-set.
const (
	FragPredCmp    uint8 = 1
	FragPredPrefix uint8 = 2
	FragPredInSet  uint8 = 3
)

// FragPred is one pushed conjunct of a fragment scan. The shard rebuilds
// the expression and runs it through its own pushdown rewrite, so the
// conjunct evaluates on encoded segment vectors with the coordinator's
// exact comparison semantics.
type FragPred struct {
	Kind   uint8
	Col    string
	Op     uint8       // FragPredCmp: exec.CmpOp numbering
	Datum  types.Datum // FragPredCmp comparand
	Prefix string      // FragPredPrefix
	Ints   []int64     // FragPredInSet, sorted ascending
}

// Fragment spec kinds: the trailing operator a fragment pushes past the
// filtered scan. Absent on old-release frames — the decoder treats an
// empty remainder as no spec, like the trace trailer.
const (
	fragSpecNone uint8 = 0
	fragSpecAgg  uint8 = 1
	fragSpecTopK uint8 = 2
)

// FragAggFn is one aggregate of a pushed-down partial aggregation.
// Kind uses exec.AggKind numbering; Col is empty for COUNT(*).
type FragAggFn struct {
	Kind uint8
	Col  string
}

// FragAgg asks the shard to aggregate the filtered scan and stream
// partial group states (MsgPartial frames) instead of raw rows.
type FragAgg struct {
	GroupBy []string
	Aggs    []FragAggFn
}

// FragSortKey is one key of a pushed-down top-k.
type FragSortKey struct {
	Col  string
	Desc bool
}

// FragTopK asks the shard to bound the filtered scan to the k smallest
// rows under Keys (total order — see exec's top-k comparator). The
// response stays a normal batch stream.
type FragTopK struct {
	K    int64
	Keys []FragSortKey
}

// Fragment is a table scan run on the peer (MsgFragment), optionally
// carrying a scatter–gather subplan: the filter conjuncts the
// coordinator's pushdown rewrite fused into the scan, plus at most one of
// an aggregate or top-k spec. Cols nil means every column. HasPred guards
// the advisory zone-map range, mirroring exec.ScanPred. The response is a
// Schema/Batch/EOS stream, or a MsgPartial stream when an aggregate spec
// is present.
type Fragment struct {
	Deadline int64
	Table    string
	Cols     []string
	HasPred  bool
	PredCol  string
	PredLo   int64
	PredHi   int64
	Preds    []FragPred
	Agg      *FragAgg
	TopK     *FragTopK
	TraceID  uint64
	SpanID   uint64
	Profile  bool
}

// Encode appends the payload encoding.
func (m Fragment) Encode(dst []byte) []byte {
	dst = binary.AppendVarint(dst, m.Deadline)
	dst = appendString(dst, m.Table)
	dst = binary.AppendUvarint(dst, uint64(len(m.Cols)))
	for _, c := range m.Cols {
		dst = appendString(dst, c)
	}
	if !m.HasPred {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendString(dst, m.PredCol)
		dst = binary.AppendVarint(dst, m.PredLo)
		dst = binary.AppendVarint(dst, m.PredHi)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Preds)))
	for _, p := range m.Preds {
		dst = append(dst, p.Kind)
		dst = appendString(dst, p.Col)
		switch p.Kind {
		case FragPredCmp:
			dst = append(dst, p.Op)
			dst = types.AppendRow(dst, types.Row{p.Datum})
		case FragPredPrefix:
			dst = appendString(dst, p.Prefix)
		case FragPredInSet:
			dst = binary.AppendUvarint(dst, uint64(len(p.Ints)))
			for _, v := range p.Ints {
				dst = binary.AppendVarint(dst, v)
			}
		}
	}
	switch {
	case m.Agg != nil:
		dst = append(dst, fragSpecAgg)
		dst = binary.AppendUvarint(dst, uint64(len(m.Agg.GroupBy)))
		for _, g := range m.Agg.GroupBy {
			dst = appendString(dst, g)
		}
		dst = binary.AppendUvarint(dst, uint64(len(m.Agg.Aggs)))
		for _, a := range m.Agg.Aggs {
			dst = append(dst, a.Kind)
			dst = appendString(dst, a.Col)
		}
	case m.TopK != nil:
		dst = append(dst, fragSpecTopK)
		dst = binary.AppendUvarint(dst, uint64(m.TopK.K))
		dst = binary.AppendUvarint(dst, uint64(len(m.TopK.Keys)))
		for _, k := range m.TopK.Keys {
			dst = appendString(dst, k.Col)
			if k.Desc {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	default:
		dst = append(dst, fragSpecNone)
	}
	return appendTraceCtx(dst, m.TraceID, m.SpanID, m.Profile)
}

// DecodeFragment parses a MsgFragment payload. Claimed counts never
// preallocate: slices grow only while payload bytes remain, so a hostile
// header cannot make the decoder over-allocate.
func DecodeFragment(b []byte) (Fragment, error) {
	d := &dec{b: b}
	m := Fragment{Deadline: d.varint(), Table: d.str()}
	n := d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Cols = append(m.Cols, d.str())
	}
	if d.byte() == 1 {
		m.HasPred = true
		m.PredCol = d.str()
		m.PredLo = d.varint()
		m.PredHi = d.varint()
	}
	n = d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		p := FragPred{Kind: d.byte(), Col: d.str()}
		switch p.Kind {
		case FragPredCmp:
			p.Op = d.byte()
			if r := d.row(); d.err == nil {
				if len(r) != 1 {
					d.fail("fragment comparand")
				} else {
					p.Datum = r[0]
				}
			}
		case FragPredPrefix:
			p.Prefix = d.str()
		case FragPredInSet:
			k := d.uvarint()
			for j := uint64(0); j < k && d.err == nil; j++ {
				p.Ints = append(p.Ints, d.varint())
			}
		default:
			if d.err == nil {
				d.err = fmt.Errorf("wire: unknown fragment predicate kind %d", p.Kind)
			}
		}
		m.Preds = append(m.Preds, p)
	}
	// Spec trailer: absent entirely on old-release frames.
	if d.err == nil && len(d.b) > 0 {
		switch kind := d.byte(); kind {
		case fragSpecNone:
		case fragSpecAgg:
			a := &FragAgg{}
			k := d.uvarint()
			for i := uint64(0); i < k && d.err == nil; i++ {
				a.GroupBy = append(a.GroupBy, d.str())
			}
			k = d.uvarint()
			for i := uint64(0); i < k && d.err == nil; i++ {
				a.Aggs = append(a.Aggs, FragAggFn{Kind: d.byte(), Col: d.str()})
			}
			m.Agg = a
		case fragSpecTopK:
			t := &FragTopK{K: int64(d.uvarint())}
			k := d.uvarint()
			for i := uint64(0); i < k && d.err == nil; i++ {
				key := FragSortKey{Col: d.str()}
				switch d.byte() {
				case 0:
				case 1:
					key.Desc = true
				default:
					d.fail("fragment top-k desc flag")
				}
				t.Keys = append(t.Keys, key)
			}
			m.TopK = t
		default:
			if d.err == nil {
				d.err = fmt.Errorf("wire: unknown fragment spec kind %d", kind)
			}
		}
	}
	decodeTraceCtx(d, &m.TraceID, &m.SpanID, &m.Profile)
	return m, d.err
}

// Partial carries one batch of serialized partial-aggregation groups
// (MsgPartial). Each group is an exec.EncodePartial row: the group key
// followed by five datums per aggregate — the exact-sum accumulator
// bytes in a String datum, the integer sum, the count, and the min/max
// datums. The row codec's own hostile-header guards bound every claimed
// length; group arity and accumulator contents are validated again by
// exec.DecodePartial before any state is combined.
type Partial struct {
	Groups []types.Row
}

// Encode appends the payload encoding.
func (m Partial) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Groups)))
	for _, g := range m.Groups {
		dst = types.AppendRow(dst, g)
	}
	return dst
}

// DecodePartial parses a MsgPartial payload. Claimed counts never
// preallocate: groups grow only while payload bytes remain.
func DecodePartial(b []byte) (Partial, error) {
	d := &dec{b: b}
	n := d.uvarint()
	m := Partial{}
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Groups = append(m.Groups, d.row())
	}
	return m, d.err
}

// Rebalance asks a coordinator to move warehouses [Lo, Hi] to shard
// Dest (MsgRebalance).
type Rebalance struct {
	Deadline int64
	Lo       int64
	Hi       int64
	Dest     int64
}

// Encode appends the payload encoding.
func (m Rebalance) Encode(dst []byte) []byte {
	dst = binary.AppendVarint(dst, m.Deadline)
	dst = binary.AppendVarint(dst, m.Lo)
	dst = binary.AppendVarint(dst, m.Hi)
	return binary.AppendVarint(dst, m.Dest)
}

// DecodeRebalance parses a MsgRebalance payload.
func DecodeRebalance(b []byte) (Rebalance, error) {
	d := &dec{b: b}
	m := Rebalance{Deadline: d.varint(), Lo: d.varint(), Hi: d.varint(), Dest: d.varint()}
	return m, d.err
}

// RebalanceInfo answers MsgRebalance: rows moved and the routing-table
// version now in effect.
type RebalanceInfo struct {
	Moved   int64
	Version int64
}

// Encode appends the payload encoding.
func (m RebalanceInfo) Encode(dst []byte) []byte {
	dst = binary.AppendVarint(dst, m.Moved)
	return binary.AppendVarint(dst, m.Version)
}

// DecodeRebalanceInfo parses a MsgRebalanceInfo payload.
func DecodeRebalanceInfo(b []byte) (RebalanceInfo, error) {
	d := &dec{b: b}
	m := RebalanceInfo{Moved: d.varint(), Version: d.varint()}
	return m, d.err
}

// Schema opens a batch stream by naming and typing its columns.
type Schema struct {
	Cols []types.Column
}

// Encode appends the payload encoding.
func (m Schema) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Cols)))
	for _, c := range m.Cols {
		dst = appendString(dst, c.Name)
		dst = append(dst, byte(c.Type))
	}
	return dst
}

// DecodeSchema parses a MsgSchema payload.
func DecodeSchema(b []byte) (Schema, error) {
	d := &dec{b: b}
	n := d.uvarint()
	m := Schema{}
	for i := uint64(0); i < n && d.err == nil; i++ {
		name := d.str()
		m.Cols = append(m.Cols, types.Column{Name: name, Type: types.ColType(d.byte())})
	}
	return m, d.err
}

// Batch carries result rows. A stream is MsgSchema, zero or more
// MsgBatch frames, then MsgEOS (or MsgError, which also ends it).
type Batch struct {
	Rows []types.Row
}

// Encode appends the payload encoding.
func (m Batch) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Rows)))
	for _, r := range m.Rows {
		dst = types.AppendRow(dst, r)
	}
	return dst
}

// DecodeBatch parses a MsgBatch or MsgRow payload.
func DecodeBatch(b []byte) (Batch, error) {
	d := &dec{b: b}
	n := d.uvarint()
	m := Batch{}
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Rows = append(m.Rows, d.row())
	}
	return m, d.err
}

// EOS closes a batch stream with the total row count, a cheap integrity
// check against dropped batches.
//
// When the request carried the profile flag, the server appends a
// trailer: a presence byte, the server-side execution / admission-wait /
// spill-I/O nanoseconds, and the rendered profile tree. Old clients stop
// after Rows; old servers never append it.
type EOS struct {
	Rows       int64
	HasProfile bool
	ExecNS     int64
	AdmitNS    int64
	SpillNS    int64
	Profile    string // exec.QueryProfile.Render output
}

// Encode appends the payload encoding.
func (m EOS) Encode(dst []byte) []byte {
	dst = binary.AppendVarint(dst, m.Rows)
	if m.HasProfile {
		dst = append(dst, 1)
		dst = binary.AppendVarint(dst, m.ExecNS)
		dst = binary.AppendVarint(dst, m.AdmitNS)
		dst = binary.AppendVarint(dst, m.SpillNS)
		dst = appendString(dst, m.Profile)
	}
	return dst
}

// DecodeEOS parses a MsgEOS payload.
func DecodeEOS(b []byte) (EOS, error) {
	d := &dec{b: b}
	m := EOS{Rows: d.varint()}
	if d.err == nil && len(d.b) > 0 && d.byte() == 1 {
		m.HasProfile = true
		m.ExecNS = d.varint()
		m.AdmitNS = d.varint()
		m.SpillNS = d.varint()
		m.Profile = d.str()
	}
	return m, d.err
}

// Freshness mirrors core.Freshness across the wire: an engine's reading
// of how far the read point of a snapshot opened now trails its newest
// commit.
type Freshness struct {
	CommitTS  uint64
	AppliedTS uint64
	LagTS     uint64
	LagNS     int64
}

// Encode appends the payload encoding.
func (m Freshness) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.CommitTS)
	dst = binary.AppendUvarint(dst, m.AppliedTS)
	dst = binary.AppendUvarint(dst, m.LagTS)
	return binary.AppendVarint(dst, m.LagNS)
}

// DecodeFreshness parses a MsgFreshnessInfo payload.
func DecodeFreshness(b []byte) (Freshness, error) {
	d := &dec{b: b}
	m := Freshness{CommitTS: d.uvarint(), AppliedTS: d.uvarint(), LagTS: d.uvarint(), LagNS: d.varint()}
	return m, d.err
}

// EncodeError builds a MsgError payload. The reason rides after the
// message; decoders predating the field ignore trailing bytes.
func EncodeError(dst []byte, e *Error) []byte {
	dst = append(dst, e.Code)
	dst = appendString(dst, e.Msg)
	if e.Reason != "" {
		dst = appendString(dst, e.Reason)
	}
	return dst
}

// DecodeError parses a MsgError payload. A garbled payload still yields a
// usable (internal) error rather than failing the decode; a payload from
// an older peer simply lacks the trailing reason.
func DecodeError(b []byte) *Error {
	d := &dec{b: b}
	e := &Error{Code: d.byte(), Msg: d.str()}
	if d.err != nil {
		return &Error{Code: CodeInternal, Msg: "garbled error frame"}
	}
	if len(d.b) > 0 {
		if r := d.str(); d.err == nil {
			e.Reason = r
		}
	}
	return e
}
