// Package types defines the value, row, and schema model shared by every
// storage engine and operator in the repository.
//
// The model is deliberately small: three scalar column types (INT, FLOAT,
// STRING) cover the whole CH-benCHmark schema once dates are encoded as
// integer day numbers and decimals as float64. Rows are flat datum slices;
// tables identify rows by a single int64 primary key (composite benchmark
// keys are packed into one int64 by the workload packages).
package types

import (
	"fmt"
	"math"
	"strings"
)

// ColType enumerates the scalar column types supported by the engines.
type ColType uint8

// Supported column types.
const (
	Int ColType = iota + 1
	Float
	String
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "STRING"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(t))
	}
}

// Datum is a single scalar value. The kind discriminates which field is
// meaningful: I for Int, I reinterpreted as float bits for Float, S for
// String. A zero Datum is NULL.
type Datum struct {
	S    string
	I    int64
	Kind ColType // zero means NULL
}

// NewInt returns an INT datum.
func NewInt(v int64) Datum { return Datum{I: v, Kind: Int} }

// NewFloat returns a FLOAT datum.
func NewFloat(v float64) Datum { return Datum{I: int64(math.Float64bits(v)), Kind: Float} }

// NewString returns a STRING datum.
func NewString(v string) Datum { return Datum{S: v, Kind: String} }

// Null is the NULL datum.
var Null = Datum{}

// IsNull reports whether d is NULL.
func (d Datum) IsNull() bool { return d.Kind == 0 }

// Int returns the integer value; it is only meaningful for Int datums.
func (d Datum) Int() int64 { return d.I }

// Float returns the floating-point value. Int datums are widened so that
// aggregate expressions can mix the two numeric kinds.
func (d Datum) Float() float64 {
	if d.Kind == Int {
		return float64(d.I)
	}
	return math.Float64frombits(uint64(d.I))
}

// Str returns the string value; it is only meaningful for String datums.
func (d Datum) Str() string { return d.S }

// String implements fmt.Stringer.
func (d Datum) String() string {
	switch d.Kind {
	case Int:
		return fmt.Sprintf("%d", d.I)
	case Float:
		return fmt.Sprintf("%g", d.Float())
	case String:
		return d.S
	default:
		return "NULL"
	}
}

// Compare orders two datums. NULL sorts before everything; mixed numeric
// kinds compare as floats; comparing a number with a string panics, which
// would indicate a planner bug rather than a data error.
func (d Datum) Compare(o Datum) int {
	if d.IsNull() || o.IsNull() {
		switch {
		case d.IsNull() && o.IsNull():
			return 0
		case d.IsNull():
			return -1
		default:
			return 1
		}
	}
	if d.Kind == String || o.Kind == String {
		if d.Kind != String || o.Kind != String {
			panic(fmt.Sprintf("types: comparing %s with %s", d.Kind, o.Kind))
		}
		return strings.Compare(d.S, o.S)
	}
	if d.Kind == Int && o.Kind == Int {
		switch {
		case d.I < o.I:
			return -1
		case d.I > o.I:
			return 1
		default:
			return 0
		}
	}
	a, b := d.Float(), o.Float()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether the two datums compare equal.
func (d Datum) Equal(o Datum) bool { return d.Compare(o) == 0 }

// Hash folds the datum into h using FNV-style mixing. Numeric datums of
// equal value hash equally regardless of kind so that join keys may mix
// Int and Float columns.
func (d Datum) Hash(h uint64) uint64 {
	switch d.Kind {
	case 0:
		return (h ^ 0x9e) * hashPrime
	case String:
		return HashString(h, d.S)
	case Float:
		return HashUint64(h, FloatHashBits(d.Float()))
	default:
		return HashUint64(h, uint64(d.I))
	}
}

// HashSeed is the FNV offset basis a key hash starts from (Row.Hash).
const HashSeed uint64 = 1469598103934665603

const hashPrime = 1099511628211

// HashUint64 folds the eight bytes of v, low byte first, into h: the step
// Datum.Hash takes for an Int, and for a Float by FloatHashBits.
func HashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * hashPrime
		v >>= 8
	}
	return h
}

// HashString folds the bytes of s into h, as Datum.Hash does a String.
func HashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime
	}
	return h
}

// FloatHashBits is what a Float hashes by: an integral finite value as the
// int64 it equals (so 2.0 hashes like Int 2, and -0 like 0), any other
// value by its bits.
func FloatHashBits(f float64) uint64 {
	if f == math.Trunc(f) && !math.IsInf(f, 0) {
		return uint64(int64(f))
	}
	return math.Float64bits(f)
}

// Row is a flat tuple laid out in schema column order.
type Row []Datum

// Clone returns a deep-enough copy of the row (datums are value types).
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Hash returns a hash of the whole row, used by tests and hash operators.
func (r Row) Hash() uint64 {
	h := HashSeed
	for _, d := range r {
		h = d.Hash(h)
	}
	return h
}

// String implements fmt.Stringer.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, d := range r {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table: its name, ordered columns, and the index of the
// column holding the packed int64 primary key.
type Schema struct {
	Name   string
	Cols   []Column
	KeyCol int
}

// NewSchema builds a schema. keyCol is the ordinal of the packed primary-key
// column and must name an Int column.
func NewSchema(name string, keyCol int, cols ...Column) *Schema {
	if keyCol < 0 || keyCol >= len(cols) || cols[keyCol].Type != Int {
		panic(fmt.Sprintf("types: schema %s: key column %d must be an existing INT column", name, keyCol))
	}
	return &Schema{Name: name, Cols: cols, KeyCol: keyCol}
}

// ColIndex returns the ordinal of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Project returns the columns cols names, in order: every column when cols
// is nil. A name the schema lacks passes through as an INT column, for the
// binder or the peer that validates names to report.
func (s *Schema) Project(cols []string) []Column {
	if cols == nil {
		return s.Cols
	}
	out := make([]Column, len(cols))
	for i, c := range cols {
		out[i] = Column{Name: c, Type: Int}
		if j := s.ColIndex(c); j >= 0 {
			out[i] = s.Cols[j]
		}
	}
	return out
}

// MustCol returns the ordinal of the named column and panics if absent;
// workload builders use it so that typos fail fast.
func (s *Schema) MustCol(name string) int {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("types: schema %s has no column %q", s.Name, name))
	}
	return i
}

// Key extracts the packed primary key from a row of this schema.
func (s *Schema) Key(r Row) int64 { return r[s.KeyCol].I }

// Validate checks that the row matches the schema arity and column kinds
// (NULLs are allowed anywhere except the key column).
func (s *Schema) Validate(r Row) error {
	if len(r) != len(s.Cols) {
		return fmt.Errorf("types: schema %s: row has %d columns, want %d", s.Name, len(r), len(s.Cols))
	}
	for i, d := range r {
		if d.IsNull() {
			if i == s.KeyCol {
				return fmt.Errorf("types: schema %s: NULL primary key", s.Name)
			}
			continue
		}
		if d.Kind != s.Cols[i].Type {
			return fmt.Errorf("types: schema %s: column %s has kind %s, want %s",
				s.Name, s.Cols[i].Name, d.Kind, s.Cols[i].Type)
		}
	}
	return nil
}
