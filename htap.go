// Package htap is a single-module reproduction of "HTAP Databases: What is
// New and What is Next" (Li & Zhang, SIGMOD 2022): four hybrid
// transactional/analytical storage architectures built from shared
// substrates, the five HTAP technique families the survey catalogues, and
// the benchmarks it covers (CH-benCHmark, HTAPBench, ADAPT/HAP).
//
// The package is a facade over the internal packages. A typical session:
//
//	engine := htap.New(htap.ArchA, htap.CHSchemas())
//	gen := htap.NewCHGenerator(htap.CHSmallScale(2))
//	gen.Load(engine)
//
//	// OLTP: run TPC-C transactions.
//	driver := htap.NewCHDriver(engine, gen.Scale)
//	driver.RunOne(rng)
//
//	// OLAP: run a CH analytical query against the same engine.
//	rows := htap.CHQueries()[5](engine)
//
//	// Mixed benchmark with metrics.
//	res := htap.RunMixed(htap.MixedConfig{Engine: engine, Scale: gen.Scale,
//	    TPWorkers: 4, APStreams: 2, Duration: time.Second})
//	fmt.Println(res.TpmC, res.QphH)
//
// See DESIGN.md for the architecture inventory and EXPERIMENTS.md for the
// paper-versus-measured results.
package htap

import (
	"fmt"

	"htap/internal/ch"
	"htap/internal/core"
	"htap/internal/exec"
	"htap/internal/experiments"
	"htap/internal/htapbench"
	"htap/internal/types"
)

// Core engine surface.
type (
	// Engine is one HTAP storage architecture (paper Figure 1).
	Engine = core.Engine
	// Tx is an OLTP transaction against an Engine.
	Tx = core.Tx
	// Arch identifies one of the four storage architectures.
	Arch = core.Arch
	// Stats aggregates engine counters.
	Stats = core.Stats

	// ConfigA..ConfigD configure each architecture explicitly; New builds
	// them with defaults.
	ConfigA = core.ConfigA
	ConfigB = core.ConfigB
	ConfigC = core.ConfigC
	ConfigD = core.ConfigD
)

// The four storage architectures of the paper's Figure 1.
const (
	ArchA = core.ArchA // primary row store + in-memory column store
	ArchB = core.ArchB // distributed row store + column store replica
	ArchC = core.ArchC // disk row store + distributed column store
	ArchD = core.ArchD // primary column store + delta row store
)

// Data model.
type (
	// Datum is a scalar value.
	Datum = types.Datum
	// Row is a tuple in schema column order.
	Row = types.Row
	// Schema describes a table.
	Schema = types.Schema
	// Column describes one attribute.
	Column = types.Column
)

// Column types.
const (
	IntType    = types.Int
	FloatType  = types.Float
	StringType = types.String
)

// Datum constructors.
var (
	Int    = types.NewInt
	Float  = types.NewFloat
	String = types.NewString
)

// NewSchema builds a table schema; keyCol must name an INT column holding
// the packed primary key.
var NewSchema = types.NewSchema

// Query surface (relational-algebra builder). Engine.Query(ctx, table,
// cols, filter) starts a plan; filter is an Expr built from the
// constructors below, or nil for every row. The engine pushes it into the
// scan and its access path reads it (a key range becomes an index scan on
// architecture C), so a plan states its filter once.
type (
	// Plan is a composable analytical query.
	Plan = exec.Plan
	// Expr is a scalar expression.
	Expr = exec.Expr
	// Agg specifies one aggregate output.
	Agg = exec.Agg
	// NamedExpr names a projected expression.
	NamedExpr = exec.NamedExpr
	// SortKey orders plan output.
	SortKey = exec.SortKey
)

// Expression constructors, re-exported from the execution engine.
var (
	Col       = exec.ColName
	ConstInt  = exec.ConstInt
	ConstStr  = exec.ConstStr
	Cmp       = exec.Cmp
	And       = exec.And
	Or        = exec.Or
	Not       = exec.Not
	Between   = exec.Between
	InInts    = exec.InInts
	HasPrefix = exec.HasPrefix
)

// Comparison operators.
const (
	EQ = exec.EQ
	NE = exec.NE
	LT = exec.LT
	LE = exec.LE
	GT = exec.GT
	GE = exec.GE
)

// Aggregate kinds.
const (
	Sum   = exec.Sum
	Count = exec.Count
	Avg   = exec.Avg
	Min   = exec.Min
	Max   = exec.Max
)

// New builds an architecture with sensible defaults over the given
// schemas. Use NewEngineA..NewEngineD with explicit configs for control
// over sync policy, cluster shape, budgets, or cost models.
func New(arch Arch, schemas []*Schema) Engine {
	switch arch {
	case ArchA:
		return core.NewEngineA(core.ConfigA{Schemas: schemas})
	case ArchB:
		return core.NewEngineB(core.ConfigB{Schemas: schemas})
	case ArchC:
		return core.NewEngineC(core.ConfigC{Schemas: schemas})
	case ArchD:
		return core.NewEngineD(core.ConfigD{Schemas: schemas})
	default:
		panic(fmt.Sprintf("htap: unknown architecture %v", arch))
	}
}

// Explicit engine constructors.
var (
	NewEngineA = core.NewEngineA
	NewEngineB = core.NewEngineB
	NewEngineC = core.NewEngineC
	NewEngineD = core.NewEngineD
)

// Exec runs fn in a transaction with automatic retries on transient
// concurrency conflicts.
var Exec = core.Exec

// CH-benCHmark surface.
type (
	// CHScale sizes a CH-benCHmark dataset.
	CHScale = ch.Scale
	// CHGenerator deterministically generates CH data.
	CHGenerator = ch.Generator
	// CHDriver executes the five TPC-C transactions.
	CHDriver = ch.Driver
	// CHQueryFunc is one of the 22 analytical queries.
	CHQueryFunc = ch.QueryFunc
)

// CH-benCHmark constructors and key-packing helpers.
var (
	CHSchemas        = ch.Schemas
	CHSmallScale     = ch.SmallScale
	CHDefaultScale   = ch.DefaultScale
	NewCHGenerator   = ch.NewGenerator
	NewCHDriver      = ch.NewDriver
	CHQueries        = ch.Queries
	CHCustomerKey    = ch.CustomerKey
	CHWarehouseKey   = ch.WarehouseKey
	CHDistrictKey    = ch.DistrictKey
	CHOrderKey       = ch.OrderKey
	CHNextHistoryKey = ch.NextHistoryKey
)

// Mixed-workload benchmarking (CH-benCHmark / HTAPBench execution rules).
type (
	// MixedConfig parameterizes a mixed OLTP+OLAP run.
	MixedConfig = htapbench.Config
	// MixedResult reports tpmC, QphH, latencies and freshness.
	MixedResult = htapbench.Result
)

// RunMixed executes a mixed workload and reports benchmark metrics.
var RunMixed = htapbench.Run

// Experiment harness (regenerates the paper's tables; see cmd/repro).
type (
	// ExperimentOpts sizes the reproduction experiments.
	ExperimentOpts = experiments.Opts
)

// Experiment entry points.
var (
	ExperimentDefaults = experiments.DefaultOpts
	RunTable1          = experiments.Table1
	RunFig1            = experiments.Fig1
	RunTradeoff        = experiments.Tradeoff
)
