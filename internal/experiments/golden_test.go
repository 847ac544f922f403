package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run's output")

// Every runner's ScaleQuick result, computed at most once per test
// binary: TestQuickGolden renders all of them and the shape tests assert
// on the same values, so no runner executes twice per `go test`.
var (
	quickFig1Resnet  = sync.OnceValue(func() *Fig1Result { return RunFig1("resnet", ScaleQuick) })
	quickFig1Bert    = sync.OnceValue(func() *Fig1Result { return RunFig1("bert", ScaleQuick) })
	quickFig2        = sync.OnceValue(func() *Fig2Result { return RunFig2(ScaleQuick) })
	quickFig4        = sync.OnceValue(func() *Fig4Result { return RunFig4(ScaleQuick) })
	quickFig5        = sync.OnceValue(func() *Fig5Result { return RunFig5(ScaleQuick) })
	quickFig6        = sync.OnceValue(func() *Fig6Result { return RunFig6(ScaleQuick) })
	quickTable1      = sync.OnceValue(func() *Table1Result { return RunTable1(ScaleQuick) })
	quickTable2      = sync.OnceValue(func() *Table2Result { return RunTable2(ScaleQuick) })
	quickTable3      = sync.OnceValue(func() *Table3Result { return RunTable3(ScaleQuick) })
	quickTable4      = sync.OnceValue(func() *Table4Result { return RunTable4(ScaleQuick) })
	quickOverlap     = sync.OnceValue(func() *OverlapResult { return RunOverlap(ScaleQuick) })
	quickCompression = sync.OnceValue(func() *CompressionResult { return RunCompression(ScaleQuick) })
	quickAdaptive    = sync.OnceValue(func() *AdaptiveResult { return RunAdaptive(ScaleQuick) })
	quickTopology    = sync.OnceValue(func() *TopologyResult { return RunTopology(ScaleQuick) })
	quickElastic     = sync.OnceValue(func() *ElasticResult { return RunElastic(ScaleQuick) })
	quickScale       = sync.OnceValue(func() *ScaleResult { return RunScale(ScaleQuick) })
	quickServe       = sync.OnceValue(func() *ServeResult { return RunServe(ScaleQuick) })
)

// quickSections is cmd/adasum-experiments' `all` order.
var quickSections = []struct {
	name   string
	render func(io.Writer)
}{
	{"fig1", func(w io.Writer) { quickFig1Resnet().Render(w); quickFig1Bert().Render(w) }},
	{"fig2", func(w io.Writer) { quickFig2().Render(w) }},
	{"fig4", func(w io.Writer) { quickFig4().Render(w) }},
	{"fig5", func(w io.Writer) { quickFig5().Render(w) }},
	{"fig6", func(w io.Writer) { quickFig6().Render(w) }},
	{"table1", func(w io.Writer) { quickTable1().Render(w) }},
	{"table2", func(w io.Writer) { quickTable2().Render(w) }},
	{"table3", func(w io.Writer) { quickTable3().Render(w) }},
	{"table4", func(w io.Writer) { quickTable4().Render(w) }},
	{"overlap", func(w io.Writer) { quickOverlap().Render(w) }},
	{"compress", func(w io.Writer) { quickCompression().Render(w) }},
	{"adaptive", func(w io.Writer) { quickAdaptive().Render(w) }},
	{"topo", func(w io.Writer) { quickTopology().Render(w) }},
	{"elastic", func(w io.Writer) { quickElastic().Render(w) }},
	{"scale", func(w io.Writer) { quickScale().Render(w) }},
	{"serve", func(w io.Writer) { quickServe().Render(w) }},
}

// TestQuickGolden pins the rendered quick-scale output of every runner.
// Runs are bitwise deterministic — across GOMAXPROCS, the noasm tag and
// GOARCH=386 — so any difference from testdata/quick.golden is a change
// in what the reproduction computes, never noise. After an intended
// change, regenerate with
//
//	go test ./internal/experiments -run TestQuickGolden -update
func TestQuickGolden(t *testing.T) {
	const path = "testdata/quick.golden"
	var buf bytes.Buffer
	for _, s := range quickSections {
		fmt.Fprintf(&buf, "=== %s ===\n", s.name)
		s.render(&buf)
	}
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(got) || i < len(exp); i++ {
		g, e := "<end of output>", "<end of golden>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("%s line %d (section %s):\n got: %s\nwant: %s", path, i+1, section, g, e)
		}
		if strings.HasPrefix(g, "=== ") {
			section = g
		}
	}
}
