package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the keys of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestManifestMatchesTables pins BENCHMARK.json to the metric and
// workload tables the program emits from.
func TestManifestMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(bj.EndToEnd), len(bj.PerLayer))
	}
	check := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: name %q or unit %q is outside the contract's alphabet", kind, d.Name, d.Unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound of %s must be in (0, 0.25] and equal the program's %v", kind, d.Name, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s carries a bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.name, len(w.why))
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs all five workloads and their traced passes in-process
// at a fiftieth of the size and checks what comes out: every listed
// metric exactly once per workload, finite; nothing unlisted; a trace
// that parses with every child span inside its parent.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	s := settings{
		seed: 1, scale: 0.02, seconds: 0.5, outDir: out,
		inProcess: true, timed: true, traced: true,
		log: t.Logf,
	}
	results := runSet(workloads, s)
	listed := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		listed[d.Name] = d
	}
	for _, w := range workloads {
		r := results[w.name]
		if r == nil {
			t.Fatalf("%s: no result", w.name)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d notes=%v", w.name, r.Correct, r.Failed, r.Notes)
		}
		for name := range listed {
			v, ok := r.Metrics[name]
			if !ok {
				t.Errorf("%s: metric %s is missing", w.name, name)
			} else if !isFinite(v) {
				t.Errorf("%s: metric %s = %v is not finite", w.name, name, v)
			}
		}
		for name := range r.Metrics {
			if _, ok := listed[name]; !ok {
				t.Errorf("%s: metric %s is emitted but not listed", w.name, name)
			}
		}
		if r.Metrics["harness.replay_mismatch"] != 0 || r.Metrics["harness.op_fail_frac"] != 0 {
			t.Errorf("%s: replay_mismatch=%v op_fail_frac=%v", w.name, r.Metrics["harness.replay_mismatch"], r.Metrics["harness.op_fail_frac"])
		}
		checkTrace(t, tracePath(out, w.name))
	}
	if t.Failed() {
		printTable(os.Stderr, resultSet{Workloads: results})
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var f traceFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(f.TraceEvents) == 0 {
		t.Errorf("%s: no spans", path)
	}
	for i, e := range f.TraceEvents {
		parent := int(e.Args["parent"].(float64))
		if parent < 0 {
			continue
		}
		if parent >= i {
			t.Errorf("%s: span %d (%s) names a later span %d as its parent", path, i, e.Name, parent)
			continue
		}
		p := f.TraceEvents[parent]
		// Timestamps are microseconds rounded from nanoseconds.
		const slack = 0.002
		if e.Ts < p.Ts-slack || e.Ts+e.Dur > p.Ts+p.Dur+slack {
			t.Errorf("%s: span %d (%s) [%v, %v] lies outside its parent %d (%s) [%v, %v]",
				path, i, e.Name, e.Ts, e.Ts+e.Dur, parent, p.Name, p.Ts, p.Ts+p.Dur)
		}
	}
}

func TestPairedGainRule(t *testing.T) {
	d := metricDef{Name: "host_op_ms_p50", Better: "lower"}
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10, 10.1, 10}
	faster := make([]float64, len(parent))
	same := make([]float64, len(parent))
	for i, v := range parent {
		faster[i] = v * 0.8
		same[i] = v * 0.995
	}
	if _, _, gain := pairedGain(d, parent, faster); !gain {
		t.Error("a 20% faster change over a 2% spread must count as a gain")
	}
	if _, _, gain := pairedGain(d, parent, same); gain {
		t.Error("a 0.5% shift inside the parent's spread must not count as a gain")
	}
	if _, _, gain := pairedGain(d, parent[:9], faster[:9]); gain {
		t.Error("fewer than ten pairs must not count as a gain")
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python's statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
}
