package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"htap/internal/ch"
	"htap/internal/client"
	"htap/internal/core"
	"htap/internal/disk"
	"htap/internal/dist"
	"htap/internal/obs"
	"htap/internal/server"
	"htap/internal/types"
)

// contractTarget is one way to run a transaction: a local engine of each
// architecture, a remote client of a server on A, and dist over two A
// shards.
type contractTarget struct {
	name string
	e    core.Beginner
}

func contractTargets(t *testing.T) []contractTarget {
	schemas := ch.Schemas // each engine takes its own copy
	local := map[string]core.Engine{
		"A": core.NewEngineA(core.ConfigA{Schemas: schemas()}),
		"B": core.NewEngineB(core.ConfigB{Schemas: schemas(), Partitions: 2, VotersPer: 3, LearnersPer: 1}),
		"C": core.NewEngineC(core.ConfigC{Schemas: schemas(), Shards: 2, Disk: disk.MemConfig()}),
		"D": core.NewEngineD(core.ConfigD{Schemas: schemas(), L1Rows: 4, L2Rows: 16}),
	}
	var out []contractTarget
	for _, name := range []string{"A", "B", "C", "D"} {
		t.Cleanup(local[name].Close)
		out = append(out, contractTarget{name, local[name]})
	}

	served := core.NewEngineA(core.ConfigA{Schemas: schemas()})
	t.Cleanup(served.Close)
	srv, err := server.Serve("127.0.0.1:0", server.Config{Engine: served, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	r, err := client.Connect(context.Background(), srv.Addr(), client.Options{Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	d, err := dist.New(2*len(contractCases), core.NewEngineA(core.ConfigA{Schemas: schemas()}), core.NewEngineA(core.ConfigA{Schemas: schemas()}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return append(out, contractTarget{"remote", r}, contractTarget{"dist", d})
}

// warehouse is a warehouse row whose w_ytd tells images apart.
func warehouse(key int64, ytd float64) types.Row {
	return types.Row{types.NewInt(key), types.NewInt(key), types.NewString("w"), types.NewString("s"), types.NewFloat(0.1), types.NewFloat(ytd)}
}

// outcome names the result of one call the same way on every target.
func outcome(row types.Row, err error) string {
	switch {
	case err == nil && row == nil:
		return "ok"
	case err == nil:
		return fmt.Sprintf("ytd %g", row[5].Float())
	case errors.Is(err, core.ErrNotFound):
		return "not found"
	case errors.Is(err, core.ErrDuplicate):
		return "duplicate"
	}
	return "error: " + err.Error()
}

type contractStep struct {
	op   string // insert, update, delete or get
	ytd  float64
	want string
}

type contractCase struct {
	name   string
	loaded bool // the key is committed with w_ytd 1 before the case runs
	steps  []contractStep
	final  string // a later transaction's Get of the key
}

var contractCases = []contractCase{
	{"update missing", false, []contractStep{{"update", 2, "not found"}}, "not found"},
	{"delete missing", false, []contractStep{{"delete", 0, "not found"}}, "not found"},
	{"insert live", true, []contractStep{{"insert", 2, "duplicate"}, {"get", 0, "ytd 1"}}, "ytd 1"},
	{"insert twice", false, []contractStep{{"insert", 2, "ok"}, {"insert", 3, "duplicate"}, {"get", 0, "ytd 2"}}, "ytd 2"},
	{"insert update", false, []contractStep{{"insert", 2, "ok"}, {"update", 3, "ok"}, {"get", 0, "ytd 3"}}, "ytd 3"},
	{"insert delete", false, []contractStep{{"insert", 2, "ok"}, {"delete", 0, "ok"}, {"get", 0, "not found"}}, "not found"},
	{"delete insert", true, []contractStep{{"delete", 0, "ok"}, {"get", 0, "not found"}, {"insert", 2, "ok"}, {"get", 0, "ytd 2"}}, "ytd 2"},
	{"update delete update", true, []contractStep{{"update", 2, "ok"}, {"delete", 0, "ok"}, {"update", 3, "not found"}, {"get", 0, "not found"}}, "not found"},
}

func (c contractCase) run(t *testing.T, e core.Beginner, key int64) {
	ctx := context.Background()
	if c.loaded {
		if err := core.Exec(ctx, e, func(tx core.Tx) error { return tx.Insert(ch.TWarehouse, warehouse(key, 1)) }); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.Begin(ctx)
	for i, s := range c.steps {
		var row types.Row
		var err error
		switch s.op {
		case "insert":
			err = tx.Insert(ch.TWarehouse, warehouse(key, s.ytd))
		case "update":
			err = tx.Update(ch.TWarehouse, warehouse(key, s.ytd))
		case "delete":
			err = tx.Delete(ch.TWarehouse, key)
		case "get":
			row, err = tx.Get(ch.TWarehouse, key)
		}
		if got := outcome(row, err); got != s.want {
			t.Errorf("step %d (%s): %s, want %s", i, s.op, got, s.want)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = e.Begin(ctx)
	defer tx.Abort()
	if got := outcome(tx.Get(ch.TWarehouse, key)); got != c.final {
		t.Errorf("committed: %s, want %s", got, c.final)
	}
}

// TestTxErrorsAgreeAcrossArchs pins one transaction contract on A–D, over
// the wire and through dist: an update or delete of a missing key is
// ErrNotFound, an insert of a live key is ErrDuplicate and is not retried,
// and the same call sequence in one transaction reads and commits the same
// state everywhere.
func TestTxErrorsAgreeAcrossArchs(t *testing.T) {
	for _, tg := range contractTargets(t) {
		t.Run(tg.name, func(t *testing.T) {
			for i, c := range contractCases {
				// Odd keys: on dist the first half routes to shard 0, the
				// rest to shard 1.
				key := int64(2*i + 1)
				t.Run(c.name, func(t *testing.T) { c.run(t, tg.e, key) })
			}
			t.Run("exec duplicate", func(t *testing.T) {
				ctx := context.Background()
				key := int64(2)
				insert := func(tx core.Tx) error { return tx.Insert(ch.TWarehouse, warehouse(key, 1)) }
				if err := core.Exec(ctx, tg.e, insert); err != nil {
					t.Fatal(err)
				}
				calls := 0
				err := core.Exec(ctx, tg.e, func(tx core.Tx) error { calls++; return insert(tx) })
				if !errors.Is(err, core.ErrDuplicate) || calls != 1 {
					t.Fatalf("Exec of a duplicate insert = %v after %d attempts, want ErrDuplicate after 1", err, calls)
				}
			})
		})
	}
}
