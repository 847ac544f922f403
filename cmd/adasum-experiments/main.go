// Command adasum-experiments regenerates the paper's tables and figures
// from the reproduction's synthetic substrates.
//
// Usage:
//
//	adasum-experiments [-full] [fig1|fig2|fig4|fig5|fig6|table1|table2|table3|table4|overlap|compress|topo|elastic|scale|serve|all]
//
// Quick scale (the default) shrinks worker counts and budgets so the
// whole suite finishes in minutes; -full runs the DESIGN.md dimensions.
// Output is a mix of aligned tables and CSV series; each runner's doc
// comment in internal/experiments names the paper result it reproduces,
// DESIGN.md "Experiment substitutions" what stands in for the paper's
// hardware and data, and internal/experiments/testdata/quick.golden is
// the quick-scale output of `all`, section by section.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run full-scale experiments (slow)")
	flag.Parse()

	scale := experiments.ScaleQuick
	if *full {
		scale = experiments.ScaleFull
	}
	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}

	runners := map[string]func(){
		"fig1": func() {
			experiments.RunFig1("resnet", scale).Render(os.Stdout)
			experiments.RunFig1("bert", scale).Render(os.Stdout)
		},
		"fig2":     func() { experiments.RunFig2(scale).Render(os.Stdout) },
		"fig4":     func() { experiments.RunFig4(scale).Render(os.Stdout) },
		"fig5":     func() { experiments.RunFig5(scale).Render(os.Stdout) },
		"fig6":     func() { experiments.RunFig6(scale).Render(os.Stdout) },
		"table1":   func() { experiments.RunTable1(scale).Render(os.Stdout) },
		"table2":   func() { experiments.RunTable2(scale).Render(os.Stdout) },
		"table3":   func() { experiments.RunTable3(scale).Render(os.Stdout) },
		"table4":   func() { experiments.RunTable4(scale).Render(os.Stdout) },
		"overlap":  func() { experiments.RunOverlap(scale).Render(os.Stdout) },
		"compress": func() { experiments.RunCompression(scale).Render(os.Stdout) },
		"topo":     func() { experiments.RunTopology(scale).Render(os.Stdout) },
		"elastic":  func() { experiments.RunElastic(scale).Render(os.Stdout) },
		"scale":    func() { experiments.RunScale(scale).Render(os.Stdout) },
		"adaptive": func() { experiments.RunAdaptive(scale).Render(os.Stdout) },
		"serve":    func() { experiments.RunServe(scale).Render(os.Stdout) },
	}
	order := []string{"fig1", "fig2", "fig4", "fig5", "fig6", "table1", "table2", "table3", "table4", "overlap", "compress", "adaptive", "topo", "elastic", "scale", "serve"}

	if what == "all" {
		for _, name := range order {
			fmt.Printf("=== %s (%s scale) ===\n", name, scale)
			t0 := time.Now()
			runners[name]()
			fmt.Printf("(%s finished in %v)\n\n", name, time.Since(t0).Round(time.Millisecond))
		}
		return
	}
	run, ok := runners[what]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of %v or all\n", what, order)
		os.Exit(2)
	}
	run()
}
