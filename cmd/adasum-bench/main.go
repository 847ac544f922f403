// Command adasum-bench is the repository's benchmark: five fixed-work
// workloads driven through the public trainer.Handle and serve.Service
// APIs, measured on both clocks (host seconds and virtual simnet
// seconds), with a separate traced pass that times the public calls of
// every step-path layer on the workload's own shapes and captured
// gradients. bench/README.md explains the workloads and the metrics.
//
//	adasum-bench                                    all workloads -> bench/out/results.json
//	adasum-bench -workload W -seed N -seconds S -trace 0|1
//	                                                one workload, one JSON line (the driver's form)
//	adasum-bench -aa N                              N whole sets, compared against the first
//	adasum-bench compare a.json b.json              compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	// Ranks are goroutines inside comm.World; pin the parallelism the
	// numbers are taken at and record it.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workloadName = flag.String("workload", "", "run only this workload and print one JSON result line")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs (data, model init, serve mix)")
		seconds      = flag.Float64("seconds", 12, "measuring time per workload: timed passes repeat until it is used (never fewer than 3)")
		trace        = flag.Int("trace", 1, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics; without: 0 skips the traced passes")
		scale        = flag.Float64("scale", 1, "multiplies every pass's op count (whole epochs while one fits)")
		outDir       = flag.String("out", "bench/out", "directory for results.json and trace-<workload>.json")
		aa           = flag.Int("aa", 0, "run the whole set N times and compare every set with the first")
		child        = flag.String("child", "", "internal: run one pass (pass|trace) of -workload and print it")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *scale <= 0 || *seconds <= 0 {
		fatal("-scale and -seconds must be positive")
	}

	s := settings{
		seed: *seed, scale: *scale, seconds: *seconds, outDir: *outDir,
		timed: true, traced: *trace != 0,
		log: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	if *child != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatal("%v", err)
		}
		childMain(*child, w, s)
		return
	}
	switch {
	case *workloadName != "":
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatal("%v", err)
		}
		s.timed = *trace == 0
		os.Exit(driverMain(w, s))
	case *aa > 0:
		os.Exit(aaMain(*aa, s))
	default:
		file := runAll(s)
		printTable(os.Stdout, file.Sets[0])
		if !file.Sets[0].ok() {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adasum-bench: "+format+"\n", args...)
	os.Exit(2)
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMain runs one workload and prints its result line: the
// end-to-end metrics of the timed passes, or the per-layer metrics of
// the traced pass.
func driverMain(w workload, s settings) int {
	res := runSet([]workload{w}, s)[w.name]
	for _, n := range res.Notes {
		fmt.Fprintf(os.Stderr, "adasum-bench: %s: %s\n", w.name, n)
	}
	if v := res.Metrics["harness.calib_spread_frac"]; v > 0.1 {
		fmt.Fprintf(os.Stderr, "adasum-bench: %s: warning: noisy machine: harness.calib_spread_frac = %.3f > 0.1\n", w.name, v)
	}
	defs := perLayer
	if s.timed {
		defs = endToEnd
	}
	line := driverLine{
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]driverValue{},
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || !isFinite(v) {
			fmt.Fprintf(os.Stderr, "adasum-bench: %s: metric %s was not measured\n", w.name, d.Name)
			return 1
		}
		line.Metrics[d.Name] = driverValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adasum-bench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// resultSet is one measurement of all workloads.
type resultSet struct {
	Workloads map[string]*result `json:"workloads"`
}

func (rs resultSet) ok() bool {
	for _, r := range rs.Workloads {
		if !r.Correct {
			return false
		}
	}
	return true
}

// resultFile is bench/out/results.json: the machine stamp and one or
// more sets (-aa N writes N).
type resultFile struct {
	Stamp stamp       `json:"stamp"`
	Sets  []resultSet `json:"sets"`
}

// runAll measures every workload once, writes results.json and returns
// the file.
func runAll(s settings) resultFile {
	file := resultFile{Stamp: machineStamp(s)}
	file.Sets = append(file.Sets, resultSet{Workloads: runSet(workloads, s)})
	writeResults(s.outDir, file)
	return file
}

func writeResults(outDir string, file resultFile) {
	b, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, "results.json"), append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		fatal("writing results: %v", err)
	}
}

// printTable prints every metric by name with its unit, one row per
// metric and one column per workload, and warns about a noisy machine.
func printTable(out *os.File, rs resultSet) {
	names := make([]string, 0, len(rs.Workloads))
	for _, w := range workloads {
		if _, ok := rs.Workloads[w.name]; ok {
			names = append(names, w.name)
		}
	}
	fmt.Fprintf(out, "%-36s %-10s", "metric", "unit")
	for _, n := range names {
		fmt.Fprintf(out, " %16s", n)
	}
	fmt.Fprintln(out)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if _, ok := rs.Workloads[names[0]].Metrics[d.Name]; !ok {
				continue
			}
			fmt.Fprintf(out, "%-36s %-10s", d.Name, d.Unit)
			for _, n := range names {
				fmt.Fprintf(out, " %16.6g", rs.Workloads[n].Metrics[d.Name])
			}
			fmt.Fprintln(out)
		}
	}
	for _, n := range names {
		r := rs.Workloads[n]
		fmt.Fprintf(out, "%s: correct=%v attempted=%d failed=%d passes=%d samples/pass=%d\n",
			n, r.Correct, r.Attempted, r.Failed, r.Passes, r.OpSamples)
		if r.OpSamples > 0 && r.OpSamples < 100 {
			fmt.Fprintf(out, "%s: warning: %d ops per pass is too few for a p90 (needs 100)\n", n, r.OpSamples)
		}
		if v := r.Metrics["harness.calib_spread_frac"]; v > 0.1 {
			fmt.Fprintf(out, "%s: warning: noisy machine: harness.calib_spread_frac = %.3f > 0.1\n", n, v)
		}
		notes := append([]string(nil), r.Notes...)
		sort.Strings(notes)
		for _, note := range notes {
			fmt.Fprintf(out, "%s: %s\n", n, note)
		}
	}
}
