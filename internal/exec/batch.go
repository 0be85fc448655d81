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
	"fmt"

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

// NewCol returns an empty column of the given kind.
func NewCol(kind types.ColType) *Col { return &Col{Kind: kind} }

// Len returns the number of values.
func (c *Col) Len() int {
	switch c.Kind {
	case types.Int:
		return len(c.Ints)
	case types.Float:
		return len(c.Floats)
	default:
		return len(c.Strs)
	}
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

// Batch is a columnar chunk of rows with named columns.
type Batch struct {
	Schema []types.Column
	Cols   []*Col
	N      int
}

// NewBatch returns an empty batch with the given schema.
func NewBatch(schema []types.Column) *Batch {
	b := &Batch{Schema: schema, Cols: make([]*Col, len(schema))}
	for i, c := range schema {
		b.Cols[i] = NewCol(c.Type)
	}
	return b
}

// AppendRow appends a types.Row matching the batch schema.
func (b *Batch) AppendRow(r types.Row) {
	for i, c := range b.Cols {
		c.Append(r[i])
	}
	b.N++
}

// Row materializes row i.
func (b *Batch) Row(i int) types.Row {
	r := make(types.Row, len(b.Cols))
	for c, col := range b.Cols {
		r[c] = col.Datum(i)
	}
	return r
}

// ColIndex returns the ordinal of the named column or -1.
func (b *Batch) ColIndex(name string) int {
	for i, c := range b.Schema {
		if c.Name == name {
			return i
		}
	}
	return -1
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
