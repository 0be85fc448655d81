package htap_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"htap"
	"htap/internal/ch"
)

// TestFacadeEndToEnd exercises the public API exactly as README shows it.
func TestFacadeEndToEnd(t *testing.T) {
	for _, arch := range []htap.Arch{htap.ArchA, htap.ArchD} {
		engine := htap.New(arch, htap.CHSchemas())
		scale := htap.CHSmallScale(1)
		gen := htap.NewCHGenerator(scale)
		if _, err := gen.Load(engine); err != nil {
			t.Fatal(err)
		}
		driver := htap.NewCHDriver(engine, scale)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20; i++ {
			if err := driver.RunOne(context.Background(), rng); err != nil {
				t.Fatalf("%v: txn: %v", arch, err)
			}
		}
		q := ch.Bind(context.Background(), engine)
		rows := htap.CHQueries()[1](q)
		q.Close()
		if len(rows) == 0 {
			t.Fatalf("%v: Q1 empty", arch)
		}
		res := htap.RunMixed(htap.MixedConfig{
			Engine: engine, Scale: scale, TPWorkers: 1, APStreams: 1,
			Duration: 100 * time.Millisecond, QuerySet: []int{6},
		})
		if res.Txns == 0 || res.Queries == 0 {
			t.Fatalf("%v: mixed run empty: %+v", arch, res)
		}
		engine.Close()
	}
}

// TestFacadeCustomSchema covers the bespoke-schema path of the facade.
func TestFacadeCustomSchema(t *testing.T) {
	s := htap.NewSchema("kv", 0,
		htap.Column{Name: "k", Type: htap.IntType},
		htap.Column{Name: "v", Type: htap.StringType},
	)
	e := htap.New(htap.ArchA, []*htap.Schema{s})
	defer e.Close()
	if err := htap.Exec(context.Background(), e, func(tx htap.Tx) error {
		return tx.Insert("kv", htap.Row{htap.Int(1), htap.String("x")})
	}); err != nil {
		t.Fatal(err)
	}
	got := e.Query(context.Background(), "kv", nil, nil).
		Filter(htap.Cmp(htap.EQ, htap.Col("k"), htap.ConstInt(1))).Run()
	if len(got) != 1 || got[0][1].Str() != "x" {
		t.Fatalf("query = %v", got)
	}
}
