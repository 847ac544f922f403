package analysis

// A miniature analysistest: each analyzer runs over a fixture package
// in testdata/<analyzer>/, and every diagnostic must be announced by a
// `// want` comment on its source line (one or more backquoted regular
// expressions, matched one diagnostic each). Unannounced diagnostics
// and unmatched wants both fail, as does any fixture directive that no
// analyzer consumed — so the fixtures also pin the stale-annotation
// bookkeeping.

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Fixture packages that must look deterministic to DetOnly analyzers
// get an import path with a deterministic suffix.
const detFixturePath = "fixture/internal/comm"

var (
	fixtureOnce sync.Once
	fixtureLd   *Loader
	fixtureErr  error
)

// fixtureLoader returns one shared default-config Loader: the expensive
// part of fixture checking is typechecking stdlib imports, and the
// cache is per-Loader.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	fixtureOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureLd, fixtureErr = NewLoader(root, Config{Name: "default"})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureLd
}

func TestDetMapFixture(t *testing.T)    { runFixtureTest(t, DetMap, "detmap", detFixturePath) }
func TestWallClockFixture(t *testing.T) { runFixtureTest(t, WallClock, "wallclock", detFixturePath) }
func TestGlobalMutFixture(t *testing.T) { runFixtureTest(t, GlobalMut, "globalmut", detFixturePath) }
func TestNoAllocFixture(t *testing.T)   { runFixtureTest(t, NoAlloc, "noalloc", "fixture/noalloc") }
func TestPoolOwnFixture(t *testing.T)   { runFixtureTest(t, PoolOwn, "poolown", detFixturePath) }

// TestNoAllocTransitiveFixture runs the noalloc analyzer's ModuleRun
// closure walk over a fixture whose violations only an interprocedural
// analysis can see.
func TestNoAllocTransitiveFixture(t *testing.T) {
	runFixtureTest(t, NoAlloc, "noalloctrans", "fixture/noalloctrans")
}

// TestDetOnlySkipsOtherPackages reruns the detmap fixture under a
// non-deterministic import path: DetOnly must gate the analyzer off
// entirely.
func TestDetOnlySkipsOtherPackages(t *testing.T) {
	ld := fixtureLoader(t)
	pkg, err := ld.CheckDir(filepath.Join("testdata", "detmap"), "fixture/ordinary")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*Package{pkg}
	diags, _, err := RunModule(pkgs, pkgs, Config{Name: "default"}, []*Analyzer{DetMap})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("DetOnly analyzer ran outside a deterministic package: %v", diags)
	}
}

// runFixtureTest runs az over the fixture package through RunModule, the
// entry point adasum-vet uses: the package plays both the analyze set
// and the full module, so a call path that stays inside it exercises a
// ModuleRun hook's interprocedural traversal end to end.
func runFixtureTest(t *testing.T, az *Analyzer, dir, importPath string) {
	t.Helper()
	ld := fixtureLoader(t)
	pkg, err := ld.CheckDir(filepath.Join("testdata", dir), importPath)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*Package{pkg}
	diags, annots, err := RunModule(pkgs, pkgs, Config{Name: "default"}, []*Analyzer{az})
	if err != nil {
		t.Fatal(err)
	}
	checkFixture(t, pkg, diags, annots[importPath])
}

func checkFixture(t *testing.T, pkg *Package, diags []Diagnostic, annot *Annotations) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range diags {
		lw := wants[d.Pos.Filename][d.Pos.Line]
		if lw == nil || !lw.claim(d.Message) {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for file, perLine := range wants {
		for line, lw := range perLine {
			for i, re := range lw.patterns {
				if !lw.matched[i] {
					t.Errorf("%s:%d: no diagnostic matched want %q", filepath.Base(file), line, re)
				}
			}
		}
	}
	// Every fixture directive must have been consumed: suppressions by a
	// silenced finding, noalloc markers by a checked function. This is
	// the same used-bit the driver's stale-annotation report reads.
	for _, d := range annot.Directives() {
		if !d.Used() {
			t.Errorf("%s:%d: fixture directive //adasum:%s was never consumed", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Key)
		}
	}
}

// lineWants is the want expectations of one source line.
type lineWants struct {
	patterns []*regexp.Regexp
	matched  []bool
}

// claim marks the first unmatched pattern matching msg, reporting
// whether one existed.
func (lw *lineWants) claim(msg string) bool {
	for i, re := range lw.patterns {
		if !lw.matched[i] && re.MatchString(msg) {
			lw.matched[i] = true
			return true
		}
	}
	return false
}

var wantPatternRe = regexp.MustCompile("`([^`]*)`")

// collectWants parses the `// want` comments of a fixture package into
// per-file, per-line expectations.
func collectWants(t *testing.T, pkg *Package) map[string]map[int]*lineWants {
	t.Helper()
	wants := make(map[string]map[int]*lineWants)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				groups := wantPatternRe.FindAllStringSubmatch(rest, -1)
				if len(groups) == 0 {
					t.Fatalf("%s:%d: want comment without a backquoted pattern", pos.Filename, pos.Line)
				}
				perLine := wants[pos.Filename]
				if perLine == nil {
					perLine = make(map[int]*lineWants)
					wants[pos.Filename] = perLine
				}
				lw := perLine[pos.Line]
				if lw == nil {
					lw = &lineWants{}
					perLine[pos.Line] = lw
				}
				for _, g := range groups {
					re, err := regexp.Compile(g[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, g[1], err)
					}
					lw.patterns = append(lw.patterns, re)
					lw.matched = append(lw.matched, false)
				}
			}
		}
	}
	return wants
}
