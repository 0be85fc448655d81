package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// runRecord is one run of one workload as the suite keeps it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	result
}

// suiteFile is what -out writes and -compare reads.
type suiteFile struct {
	Seconds float64 `json:"seconds"`
	Host    struct {
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		NumCPU     int    `json:"num_cpu"`
	} `json:"host"`
	// Settings names what the bench leaves at the program's defaults, so a
	// reader knows both sides of a comparison ran with the same.
	Settings map[string]string `json:"settings"`
	Runs     []runRecord       `json:"runs"`
}

var settings = map[string]string{
	"engine_mode":  "sched.Shared (default)",
	"flush_policy": "each engine's default group commit on the simulated disk.Device",
	"sync_every":   syncEvery.String(),
	"generators":   "one TP client and one AP stream in one process",
}

// runChild runs one workload in a fresh process, so heap, peak memory, the
// htap_* counters and the history-key sequence are the workload's own.
func runChild(ctx context.Context, workload string, seed int64, seconds float64, traced bool, setUps int) (*runRecord, []byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", trace, "-setups", fmt.Sprint(setUps))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	rec := &runRecord{Workload: workload, Seed: seed, Traced: traced}
	if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
		if runErr != nil {
			return nil, out, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, out, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	// A run that printed a result and exited non-zero measured but found
	// something wrong; the record says so through Correct.
	return rec, out, nil
}

type suiteOpts struct {
	seed    int64
	runs    int
	seconds float64
	quick   bool
	out     string
}

// runSuite runs every workload, untraced then traced, once per seed, prints
// each child's metric lines and ends with one JSON document.
func runSuite(ctx context.Context, o suiteOpts) error {
	setUps := setUpRepeats
	if o.quick {
		setUps = 1
	}
	doc := newSuiteFile(o.seconds)
	wrong := 0
	for i := 0; i < o.runs; i++ {
		for _, s := range specs {
			for _, traced := range []bool{false, true} {
				rec, out, err := runChild(ctx, s.name, o.seed+int64(i), o.seconds, traced, setUps)
				if err != nil {
					return err
				}
				// Everything but the child's result line, which the document repeats.
				body := bytes.TrimSpace(out)
				if j := bytes.LastIndexByte(body, '\n'); j >= 0 {
					os.Stdout.Write(body[:j+1])
				}
				if err := validate(rec); err != nil {
					return err
				}
				if !rec.Correct {
					wrong++
				}
				doc.Runs = append(doc.Runs, *rec)
			}
		}
	}
	if err := doc.emit(o.out); err != nil {
		return err
	}
	if wrong > 0 {
		return fmt.Errorf("%d runs produced wrong results", wrong)
	}
	return nil
}

func newSuiteFile(seconds float64) *suiteFile {
	doc := &suiteFile{Seconds: seconds, Settings: settings}
	doc.Host.GoVersion = runtime.Version()
	doc.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	doc.Host.NumCPU = runtime.NumCPU()
	return doc
}

// emit prints the document as the last line of standard output and, with a
// path, writes it there too.
func (doc *suiteFile) emit(path string) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if path == "" {
		return nil
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validate checks a run's shape: exactly the declared metrics, each with
// its declared unit and a well-formed name, and at least one operation.
func validate(rec *runRecord) error {
	want := endToEndSpec
	if rec.Traced {
		want = perLayerSpec
	}
	if rec.Attempted < 1 {
		return fmt.Errorf("%s: attempted %d operations", rec.Workload, rec.Attempted)
	}
	if len(rec.Metrics) != len(want) {
		return fmt.Errorf("%s: %d metrics, %d declared", rec.Workload, len(rec.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := rec.Metrics[w.name]
		switch {
		case !ok:
			return fmt.Errorf("%s: metric %s is missing", rec.Workload, w.name)
		case m.Unit != w.unit:
			return fmt.Errorf("%s: metric %s has unit %q, declared %q", rec.Workload, w.name, m.Unit, w.unit)
		case !metricName.MatchString(w.name) || !unitName.MatchString(w.unit):
			return fmt.Errorf("%s: metric %s [%s] is not a well-formed name and unit", rec.Workload, w.name, w.unit)
		case !rec.Traced && m.Value == 0:
			return fmt.Errorf("%s: end-to-end metric %s is 0", rec.Workload, w.name)
		}
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the comparer needs.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// values collects one end-to-end metric of one workload over a set's
// untraced runs.
func values(runs []runRecord, workload, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// verdict compares two sets of runs on one metric of one workload.
type verdict struct {
	workload, metric, unit string
	oldMed, newMed         float64
	oldSpread, newSpread   float64
	// worse is how far the new median is on the bad side of the old one, as
	// a share of the old median; negative when it is better.
	worse float64
	bound float64
	word  string // better | same | worse | unresolved
}

func judge(bf *benchmarkFile, old, new []runRecord) []verdict {
	var out []verdict
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, b := values(old, w.Name, m.Name), values(new, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict{workload: w.Name, metric: m.Name, unit: m.Unit, bound: m.Bound,
				oldMed: median(a), newMed: median(b), oldSpread: quartileSpread(a), newSpread: quartileSpread(b)}
			v.worse = ratio(v.newMed-v.oldMed, v.oldMed)
			if m.Better == "higher" {
				v.worse = -v.worse
			}
			switch {
			case v.oldSpread > v.bound || v.newSpread > v.bound:
				v.word = "unresolved"
			case v.worse > v.bound:
				v.word = "worse"
			case v.worse < -v.bound:
				v.word = "better"
			default:
				v.word = "same"
			}
			out = append(out, v)
		}
	}
	return out
}

func printVerdicts(vs []verdict, oldName, newName string) (worse int) {
	fmt.Printf("%-8s %-20s %5s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "unit", oldName, "spread", newName, "spread", "new/old", "bound", "verdict")
	for _, v := range vs {
		fmt.Printf("%-8s %-20s %5s %12.6g %6.1f%% %12.6g %6.1f%% %8.4f %5.0f%%  %s\n",
			v.workload, v.metric, v.unit, v.oldMed, 100*v.oldSpread, v.newMed, 100*v.newSpread,
			ratio(v.newMed, v.oldMed), 100*v.bound, v.word)
		if v.word == "worse" {
			worse++
		}
	}
	return worse
}

// runCompare prints one row per workload and end-to-end metric for two
// result files and fails when any row is worse.
func runCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes two result files: old.json new.json")
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var docs [2]suiteFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// The document is the file's last line; a captured standard output
		// has the metric lines before it.
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, 64<<20)
		var last []byte
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) > 0 {
				last = append(last[:0], sc.Bytes()...)
			}
		}
		if err := json.Unmarshal(last, &docs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if docs[0].Seconds != docs[1].Seconds {
		return fmt.Errorf("the files ran %v and %v seconds of load: not comparable", docs[0].Seconds, docs[1].Seconds)
	}
	if worse := printVerdicts(judge(bf, docs[0].Runs, docs[1].Runs), "old", "new"); worse > 0 {
		return fmt.Errorf("%d metrics are worse by more than their bound", worse)
	}
	return nil
}

// calibrateSeeds is how many seeds one set of calibration runs takes.
const calibrateSeeds = 10

// runCalibrate measures the bench against itself the way the acceptance
// procedure does: two sets of ten untraced runs per workload, each run on
// another seed, on the same build. It reports every metric's spread in each
// set and the second median against the first, and fails when a spread or
// a drift exceeds the metric's bound.
func runCalibrate(ctx context.Context, seconds float64, out string) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sets [2][]runRecord
	doc := newSuiteFile(seconds)
	for set := range sets {
		for _, s := range specs {
			for i := 0; i < calibrateSeeds; i++ {
				seed := int64(set*calibrateSeeds + i + 1)
				rec, _, err := runChild(ctx, s.name, seed, seconds, false, setUpRepeats)
				if err != nil {
					return err
				}
				if err := validate(rec); err != nil {
					return err
				}
				if !rec.Correct {
					return fmt.Errorf("%s seed %d: wrong results", s.name, seed)
				}
				line, _ := json.Marshal(rec) // a record of numbers and strings always marshals
				fmt.Fprintf(os.Stderr, "calibrate: set %d %s\n", set+1, line)
				sets[set] = append(sets[set], *rec)
				doc.Runs = append(doc.Runs, *rec)
			}
		}
	}
	vs := judge(bf, sets[0], sets[1])
	printVerdicts(vs, "set1", "set2")
	var bad []string
	for _, v := range vs {
		// setup_s is held to its drift only: it is already a median of
		// several set-ups within each run.
		wide := v.metric != "setup_s" && (v.oldSpread > v.bound || v.newSpread > v.bound)
		if wide || v.worse > v.bound {
			bad = append(bad, v.workload+"/"+v.metric)
		}
	}
	sort.Strings(bad)
	if err := doc.emit(out); err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("not steady within bounds: %s", strings.Join(bad, ", "))
	}
	return nil
}
