// Package exec implements the vectorized query execution engine used for
// the OLAP side of every architecture.
//
// Operators exchange columnar batches (the Go stand-in for the paper's
// "aggregations over compressed data and SIMD instructions", §2.2(2)):
// sources decode column-store segments or row-store snapshots into typed
// arrays, and filters, joins, aggregations, sorts and limits stream batches
// through a pull-based iterator pipeline. A small fluent builder assembles
// plans; the CH-benCHmark queries are written against it.
package exec

import (
	"cmp"
	"fmt"
	"slices"

	"htap/internal/types"
)

// BatchSize is the number of rows per exchanged batch.
const BatchSize = 1024

// Col is one column of a batch as a typed array.
type Col struct {
	Kind   types.ColType
	Ints   []int64
	Floats []float64
	Strs   []string
}

// Datum returns the value at row i.
func (c *Col) Datum(i int) types.Datum {
	switch c.Kind {
	case types.Int:
		return types.NewInt(c.Ints[i])
	case types.Float:
		return types.NewFloat(c.Floats[i])
	default:
		return types.NewString(c.Strs[i])
	}
}

// Append adds d, which must match the column kind (Int widens to Float).
func (c *Col) Append(d types.Datum) {
	switch c.Kind {
	case types.Int:
		c.Ints = append(c.Ints, d.Int())
	case types.Float:
		c.Floats = append(c.Floats, d.Float())
	default:
		c.Strs = append(c.Strs, d.Str())
	}
}

// AppendFrom copies row i of src.
func (c *Col) AppendFrom(src *Col, i int) {
	switch c.Kind {
	case types.Int:
		c.Ints = append(c.Ints, src.Ints[i])
	case types.Float:
		c.Floats = append(c.Floats, src.Floats[i])
	default:
		c.Strs = append(c.Strs, src.Strs[i])
	}
}

// appendN appends the first n rows of src.
func (c *Col) appendN(src *Col, n int) {
	switch c.Kind {
	case types.Int:
		c.Ints = append(c.Ints, src.Ints[:n]...)
	case types.Float:
		c.Floats = append(c.Floats, src.Floats[:n]...)
	default:
		c.Strs = append(c.Strs, src.Strs[:n]...)
	}
}

// setFrom overwrites row i with row j of src.
func (c *Col) setFrom(i int, src *Col, j int) {
	switch c.Kind {
	case types.Int:
		c.Ints[i] = src.Ints[j]
	case types.Float:
		c.Floats[i] = src.Floats[j]
	default:
		c.Strs[i] = src.Strs[j]
	}
}

// compare orders row i of c against row j of d exactly as
// types.Datum.Compare orders their datums.
func (c *Col) compare(i int, d *Col, j int) int {
	if c.Kind == types.Int && d.Kind == types.Int {
		return cmp.Compare(c.Ints[i], d.Ints[j])
	}
	return c.Datum(i).Compare(d.Datum(j))
}

// equal reports whether row i of c equals row j of d, as
// types.Datum.Equal does their datums: Int–Int and String–String compare
// typed, every other pairing (mixed Int/Float, Float −0 and NaN) through
// the datums.
func (c *Col) equal(i int, d *Col, j int) bool {
	switch {
	case c.Kind == types.Int && d.Kind == types.Int:
		return c.Ints[i] == d.Ints[j]
	case c.Kind == types.String && d.Kind == types.String:
		return c.Strs[i] == d.Strs[j]
	}
	return c.Datum(i).Equal(d.Datum(j))
}

// gather sets c to the rows idx of src, in idx order, in one typed copy
// of exact length.
func (c *Col) gather(src *Col, idx []int32) {
	c.Kind = src.Kind
	switch src.Kind {
	case types.Int:
		v := make([]int64, len(idx))
		for j, i := range idx {
			v[j] = src.Ints[i]
		}
		c.Ints = v
	case types.Float:
		v := make([]float64, len(idx))
		for j, i := range idx {
			v[j] = src.Floats[i]
		}
		c.Floats = v
	default:
		v := make([]string, len(idx))
		for j, i := range idx {
			v[j] = src.Strs[i]
		}
		c.Strs = v
	}
}

// hashBatch appends to hs the key hash of every row of b: the FNV chain
// of types.Row.Hash over the key columns, one pass per key column, so a
// key hashes alike as batch row or types.Row.
func hashBatch(b *Batch, keys []int, hs []uint64) []uint64 {
	n := len(hs)
	hs = slices.Grow(hs, b.N)[:n+b.N]
	out := hs[n:]
	for i := range out {
		out[i] = types.HashSeed
	}
	for _, k := range keys {
		c := b.Cols[k]
		switch c.Kind {
		case types.Int:
			for i, v := range c.Ints[:b.N] {
				out[i] = types.HashUint64(out[i], uint64(v))
			}
		case types.Float:
			for i, f := range c.Floats[:b.N] {
				out[i] = types.HashUint64(out[i], types.FloatHashBits(f))
			}
		default:
			for i, s := range c.Strs[:b.N] {
				out[i] = types.HashString(out[i], s)
			}
		}
	}
	return hs
}

// Batch is a columnar chunk of rows with named columns.
type Batch struct {
	Schema []types.Column
	Cols   []*Col
	N      int
}

// NewBatch returns an empty batch with the given schema whose columns
// reserve room for n rows.
func NewBatch(schema []types.Column, n int) *Batch {
	b := &Batch{Schema: schema, Cols: make([]*Col, len(schema))}
	cols := make([]Col, len(schema))
	for i, c := range schema {
		cols[i].Kind = c.Type
		switch c.Type {
		case types.Int:
			cols[i].Ints = make([]int64, 0, n)
		case types.Float:
			cols[i].Floats = make([]float64, 0, n)
		default:
			cols[i].Strs = make([]string, 0, n)
		}
		b.Cols[i] = &cols[i]
	}
	return b
}

// gathered returns an n-row batch of schema whose columns the caller
// sets: by Col.gather, or by sharing a column of another batch. Sharing
// is safe because no operator writes into a batch it received.
func gathered(schema []types.Column, n int) *Batch {
	b := &Batch{Schema: schema, Cols: make([]*Col, len(schema)), N: n}
	cols := make([]Col, len(schema))
	for i := range b.Cols {
		b.Cols[i] = &cols[i]
	}
	return b
}

// gatherBatch returns the rows sel of b, in sel order.
func gatherBatch(b *Batch, sel []int32) *Batch {
	out := gathered(b.Schema, len(sel))
	for c, col := range b.Cols {
		out.Cols[c].gather(col, sel)
	}
	return out
}

// AppendRow appends a types.Row matching the batch schema.
func (b *Batch) AppendRow(r types.Row) {
	for i, c := range b.Cols {
		c.Append(r[i])
	}
	b.N++
}

// nextRows cuts the next batch of up to BatchSize rows of schema from
// rows[*pos:], advancing *pos; nil when none are left.
func nextRows(schema []types.Column, rows []types.Row, pos *int) *Batch {
	if *pos >= len(rows) {
		return nil
	}
	b := NewBatch(schema, min(len(rows)-*pos, BatchSize))
	for ; *pos < len(rows) && b.N < BatchSize; *pos++ {
		b.AppendRow(rows[*pos])
	}
	return b
}

// appendFrom appends row i of cols, which match b's column kinds.
func (b *Batch) appendFrom(cols []*Col, i int) {
	for c, col := range b.Cols {
		col.AppendFrom(cols[c], i)
	}
	b.N++
}

// gatherRows copies up to BatchSize rows that next yields into a batch of
// schema, dropping each row's first skip columns; nil when next yields
// none.
func gatherRows(schema []types.Column, skip int, next func() (*Batch, int, error)) (*Batch, error) {
	out := NewBatch(schema, BatchSize)
	for out.N < BatchSize {
		b, i, err := next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		out.appendFrom(b.Cols[skip:], i)
	}
	if out.N == 0 {
		return nil, nil
	}
	return out, nil
}

// rowOrder is the one row comparator: sort, top-k and the k-way merge
// order batch rows with it. Rows compare on the key columns in turn; a
// total order then breaks key ties on every column ascending.
type rowOrder struct {
	keys  []orderKey
	total bool
}

type orderKey struct {
	col  int
	desc bool
}

// tagOrder orders tagged rows by their tag (column 0).
var tagOrder = rowOrder{keys: []orderKey{{col: 0}}}

func newRowOrder(schema []types.Column, keys []SortKey, total bool) rowOrder {
	o := rowOrder{keys: make([]orderKey, len(keys)), total: total}
	for i, k := range keys {
		o.keys[i] = orderKey{col: colIndex(schema, k.Col), desc: k.Desc}
	}
	return o
}

// compare returns a negative number when row i of a orders before row j
// of b, a positive one when after, and 0 when neither does.
func (o rowOrder) compare(a *Batch, i int, b *Batch, j int) int {
	for _, k := range o.keys {
		if c := a.Cols[k.col].compare(i, b.Cols[k.col], j); c != 0 {
			if k.desc {
				return -c
			}
			return c
		}
	}
	if o.total {
		for k, col := range a.Cols {
			if c := col.compare(i, b.Cols[k], j); c != 0 {
				return c
			}
		}
	}
	return 0
}

// colIndex resolves name against a schema, panicking on typos: plans are
// authored in code, so a missing column is a programming error.
func colIndex(schema []types.Column, name string) int {
	for i, c := range schema {
		if c.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("exec: no column %q in %v", name, schema))
}
