package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// stamp records the machine and settings a result file was taken on.
type stamp struct {
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
}

func machineStamp(s settings) stamp {
	st := stamp{
		GoVersion: runtime.Version(), CPUModel: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: s.seed, Scale: s.scale, Seconds: s.seconds, Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(b))
	}
	return st
}

// aaMain runs the whole set n times on the same code and seed and
// compares every later set with the first. It exits non-zero when a
// host-clock end-to-end metric moves by more than its bound or an exact
// metric differs at all.
func aaMain(n int, s settings) int {
	file := resultFile{Stamp: machineStamp(s)}
	for i := 0; i < n; i++ {
		s.log("== set %d of %d ==", i+1, n)
		file.Sets = append(file.Sets, resultSet{Workloads: runSet(workloads, s)})
		writeResults(s.outDir, file)
	}
	code := 0
	for i, set := range file.Sets {
		if !set.ok() {
			fmt.Printf("set %d: a workload reported incorrect results\n", i+1)
			printTable(os.Stdout, set)
			code = 1
		}
	}
	for i := 1; i < n; i++ {
		fmt.Printf("== set 1 vs set %d ==\n", i+1)
		if breaches := compareSets(os.Stdout, file.Sets[:1], file.Sets[i:i+1]); breaches > 0 {
			code = 1
		}
	}
	return code
}

// compareMain implements `adasum-bench compare a.json b.json`: a is the
// parent, b the change.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: adasum-bench compare parent.json change.json")
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err == nil && len(files[i].Sets) == 0 {
			err = fmt.Errorf("no result sets")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "adasum-bench: %s: %v\n", path, err)
			return 2
		}
	}
	if compareSets(os.Stdout, files[0].Sets, files[1].Sets) > 0 {
		return 1
	}
	return 0
}

// worseBy is how much worse b is than a, as a share of |a|, in the
// metric's own direction (negative means better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == b {
		return 0
	}
	diff := b - a
	if d.Better == "higher" {
		diff = -diff
	}
	if a == 0 {
		return math.Copysign(math.Inf(1), diff)
	}
	return diff / math.Abs(a)
}

// compareSets prints, per metric and workload, both values (the median
// over each side's sets), the deviation and the bound, and returns the
// number of breaches: an end-to-end metric worse by more than its
// bound, or an exact metric that differs. With ten or more sets on each
// side it also gives the paired-run verdict on each end-to-end metric.
func compareSets(out io.Writer, a, b []resultSet) int {
	breaches := 0
	paired := len(a) >= 10 && len(b) >= 10
	col := func(sets []resultSet, w, m string) []float64 {
		var xs []float64
		for _, s := range sets {
			if r, ok := s.Workloads[w]; ok {
				if v, ok := r.Metrics[m]; ok {
					xs = append(xs, v)
				}
			}
		}
		return xs
	}
	fmt.Fprintf(out, "%-16s %-36s %16s %16s %9s %7s  %s\n", "workload", "metric", "parent", "change", "worse by", "bound", "verdict")
	for _, w := range workloads {
		for li, list := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range list {
				xa, xb := col(a, w.name, d.Name), col(b, w.name, d.Name)
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				va, vb := median(xa), median(xb)
				dev := worseBy(d, va, vb)
				verdict := "ok"
				switch {
				case d.Exact && va != vb:
					verdict = "DIFFERS (exact metric)"
					breaches++
				case li == 0 && dev > d.Bound:
					verdict = "BREACH"
					breaches++
				case li == 1:
					verdict = ""
				}
				if paired && li == 0 && !d.Exact {
					if wins, pairs, gain := pairedGain(d, xa, xb); gain {
						verdict += fmt.Sprintf(" gain (%d/%d pairs)", wins, pairs)
					}
				}
				bound := ""
				if li == 0 {
					bound = fmt.Sprintf("%.3f", d.Bound)
				}
				fmt.Fprintf(out, "%-16s %-36s %16.6g %16.6g %+9.4f %7s  %s\n", w.name, d.Name, va, vb, dev, bound, verdict)
			}
		}
	}
	fmt.Fprintf(out, "%d breach(es)\n", breaches)
	return breaches
}

// pairedGain is the rule for claiming a gain from paired runs (parent
// and change alternating, pair i being parent[i] and change[i]): at
// least ten pairs, the change wins at least nine tenths of them (ties
// count for neither side), and the medians differ by more than the
// parent's own interquartile spread.
func pairedGain(d metricDef, parent, change []float64) (wins, pairs int, gain bool) {
	pairs = min(len(parent), len(change))
	if pairs < 10 {
		return 0, pairs, false
	}
	for i := 0; i < pairs; i++ {
		if worseBy(d, parent[i], change[i]) < 0 {
			wins++
		}
	}
	q1, q3 := quartiles(parent[:pairs])
	gap := math.Abs(median(change[:pairs]) - median(parent[:pairs]))
	better := worseBy(d, median(parent[:pairs]), median(change[:pairs])) < 0
	return wins, pairs, better && 10*wins >= 9*pairs && gap > q3-q1
}
