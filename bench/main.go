// Command bench is the repository's one benchmark: CH-benCHmark load on
// architecture A in four deployments, end-to-end metrics from an untraced
// run and per-layer metrics from a traced one. See README.md beside it.
//
//	bench -workload local -seed 1 -seconds 30 -trace 0    one run (BENCHMARK.json's form)
//	bench -seed 1                                          every workload, untraced then traced
//	bench -quick                                           every workload at 1/20 size: a smoke test
//	bench -calibrate                                       ten seeds twice: spreads against bounds
//	bench -compare old.json new.json                       two result files side by side
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds, for runs started by hand.
const defaultSeconds = 30

// setUpRepeats is how many set-ups an untraced run takes its setup_s median
// from.
const setUpRepeats = 3

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload in this process ("+workloadNames()+"); empty runs them all, each in a child process")
		seed      = flag.Int64("seed", 1, "seed of the transaction stream")
		seconds   = flag.Float64("seconds", defaultSeconds, "seconds of load per run")
		trace     = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
		quick     = flag.Bool("quick", false, "smoke test: every workload, traced and untraced, at 1/20 of the load")
		calibrate = flag.Bool("calibrate", false, "run ten seeds per workload twice and report each metric's spread against its bound")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments: old.json new.json")
		runs      = flag.Int("runs", 1, "how many times the suite runs each workload, on seeds seed, seed+1, ...")
		setUps    = flag.Int("setups", setUpRepeats, "how many times an untraced run sets up; setup_s is their median")
		out       = flag.String("out", "", "also write the suite's or the calibration's results to this JSON file")
		golden    = flag.Bool("write-golden", false, "load the dataset and rewrite golden/ch22.json in the current directory's bench/golden")
	)
	flag.Parse()
	ctx := context.Background()

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *golden:
		err = writeGolden(ctx)
	case *calibrate:
		err = runCalibrate(ctx, *seconds, *out)
	case *quick:
		err = runSuite(ctx, suiteOpts{seed: *seed, runs: 1, seconds: *seconds / 20, quick: true, out: *out})
	case *workload == "":
		err = runSuite(ctx, suiteOpts{seed: *seed, runs: *runs, seconds: *seconds, out: *out})
	default:
		err = runOne(ctx, *workload, *seed, *seconds, *trace == 1, *setUps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, "|")
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs one workload in this process and prints every metric as
// "workload metric value unit [n=samples]" and then the result object.
func runOne(ctx context.Context, name string, seed int64, seconds float64, traced bool, setUps int) error {
	s := specByName(name)
	if s == nil {
		return fmt.Errorf("no workload %q (have %s)", name, workloadNames())
	}
	if seconds <= 0 || setUps < 1 {
		return fmt.Errorf("-seconds and -setups must be positive")
	}
	// A traced run reports no set-up time, so it sets up once.
	opt := runOpts{spec: s, seed: seed, seconds: seconds, traced: traced, setUps: setUps, traceDir: "bench/out"}
	if traced {
		opt.setUps = 1
	}
	o, err := runWorkload(ctx, opt)
	if err != nil {
		return err
	}
	for _, p := range o.Problems {
		fmt.Fprintln(os.Stderr, "bench: WRONG:", p)
	}
	metrics := o.EndToEnd
	if traced {
		metrics = o.PerLayer
	}
	printMetrics(o.Workload, metrics)
	fmt.Printf("%s attempted %d failed %d correct %v\n", o.Workload, o.Attempted, o.Failed, o.Correct)
	line, err := json.Marshal(result{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !o.Correct {
		return fmt.Errorf("%s: results are wrong", o.Workload)
	}
	return nil
}

func printMetrics(workload string, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		if m.N > 0 {
			fmt.Printf("%s %s %.6g %s n=%d\n", workload, n, m.Value, m.Unit, m.N)
		} else {
			fmt.Printf("%s %s %.6g %s\n", workload, n, m.Value, m.Unit)
		}
	}
}
