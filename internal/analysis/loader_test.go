package analysis

import (
	"go/ast"
	"go/types"
	"testing"
)

func TestIsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		path string
		want bool
	}{
		{"repro/internal/comm", true},
		{"repro/internal/adasum", true},
		{"repro/internal/simnet", true},
		{"internal/comm", true},
		{"repro/internal/tensor", false},
		{"repro/internal/commx", false},
		{"repro/cmd/adasum-vet", false},
		{"repro/internal/comm/sub", false},
		{"fixture/internal/comm", true},
	} {
		if got := IsDeterministic(tc.path); got != tc.want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

// TestLoaderCrossArch pins the 386 leg of the config matrix: changing
// GOARCH must retag the build context (dropping the amd64 feature tags
// and the register-ABI experiment) or stdlib typechecking fails inside
// internal/abi.
func TestLoaderCrossArch(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewLoader(root, Config{Name: "386", GOARCH: "386", Tags: []string{"noasm"}})
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.Load(ld.modPath + "/internal/tensor")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Scope().Lookup("Dot") == nil {
		t.Error("tensor.Dot missing from the 386 typecheck")
	}
	// Word width is the point of the 386 leg: int must be 4 bytes.
	if s := ld.sizes.Sizeof(types.Typ[types.Int]); s != 4 {
		t.Errorf("386 loader sizes int at %d bytes, want 4", s)
	}
}

// TestRepoIsClean runs the full suite — per-package passes over every
// deterministic package plus the module passes (transitive noalloc)
// over the whole loaded module — under the default configuration: the
// committed tree must produce zero diagnostics, so a violation
// introduced without running adasum-vet still fails `go test`.
func TestRepoIsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewLoader(root, Config{Name: "default"})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := ld.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	var analyze []*Package
	for _, path := range paths {
		if !IsDeterministic(path) {
			continue
		}
		pkg, err := ld.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		analyze = append(analyze, pkg)
	}
	if len(analyze) < 8 {
		t.Fatalf("only %d deterministic packages found; the detSuffixes list and the module tree have diverged", len(analyze))
	}
	// Load the remaining module packages too: the noalloc closure must
	// be able to follow calls out of the deterministic core.
	for _, path := range paths {
		if _, err := ld.Load(path); err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
	}
	diags, _, err := RunModule(analyze, ld.LoadedModulePackages(), Config{Name: "default"}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// keptExports are the exported functions and methods no non-test file
// names, kept on purpose, keyed as funcDisplayName prints them.
var keptExports = map[string]string{
	"adasum.LinearReduce":      "reference: collective's StrategyLinear tests compare against it",
	"analysis.Loader.Import":   "implements types.Importer for the typechecker",
	"analysis.Loader.CheckDir": "seam: the analyzer fixtures load through it",
	"comm.World.DeclareDead":   "seam: collective and overlap failure tests kill ranks with it",
	"simnet.Uniform":           "seam: comm, collective and overlap tests build cost models with it",
	"tensor.Equal":             "seam: the tests of most packages compare vectors with it",
	"tensor.HasNaNOrInf":       "seam: adasum and trainer tests check results stay finite",

	"optim.SGD.StateSize":      "implements optim.Optimizer",
	"optim.Momentum.StateSize": "implements optim.Optimizer",
	"optim.Adam.StateSize":     "implements optim.Optimizer",
	"optim.LARS.StateSize":     "implements optim.Optimizer",
	"optim.LAMB.StateSize":     "implements optim.Optimizer",

	"experiments.AdaptiveResult.BestStatic":            "claim predicate: the adaptive-policy shape test",
	"experiments.AdaptiveResult.Adaptive":              "claim predicate: the adaptive-policy shape test",
	"experiments.ElasticResult.Row":                    "claim predicate: the elastic shape test",
	"experiments.Fig4Result.MaxRatio":                  "claim predicate: the Figure 4 shape test",
	"experiments.OverlapResult.BestSpeedup":            "claim predicate: the overlap shape test",
	"experiments.ScaleResult.HierarchySpeedupAt":       "claim predicate: the scale shape test",
	"experiments.ServeResult.Row":                      "claim predicate: the serve shape test",
	"experiments.Table3Result.Row":                     "claim predicate: the Table 3 shape test",
	"experiments.TopologyResult.BestThreeLevelSpeedup": "claim predicate: the topology shape test",
}

// TestEveryExportIsReferenced is the ratchet on the public surface:
// every exported function or method declared in non-test code of the
// module (cmd/adasum-bench included) must be named by some non-test
// file, or be listed in keptExports with its reason. A method counts as
// named when any method of that name is: interface calls resolve to the
// interface's method object, so every implementation stays.
func TestEveryExportIsReferenced(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewLoader(root, Config{Name: "default"})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := ld.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if _, err := ld.Load(path); err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
	}
	pkgs := ld.LoadedModulePackages()
	used := make(map[*types.Func]bool)
	usedMethods := make(map[string]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
				if fn.Type().(*types.Signature).Recv() != nil {
					usedMethods[fn.Name()] = true
				}
			}
		}
	}
	kept := 0
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if used[fn] || (fd.Recv != nil && usedMethods[fn.Name()]) {
					continue
				}
				name := funcDisplayName(fn, nil)
				if _, ok := keptExports[name]; ok {
					kept++
				} else {
					t.Errorf("%s: %s is named by no non-test file", p.Fset.Position(fd.Pos()), name)
				}
			}
		}
	}
	if kept != len(keptExports) {
		t.Errorf("keptExports lists %d names but only %d are unreferenced declarations: drop the stale entries", len(keptExports), kept)
	}
}
