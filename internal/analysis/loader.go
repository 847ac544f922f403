package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Config is one build configuration to analyze under. Tag-gated files
// (noasm fallbacks, 386-only widths) carry the same invariants as the
// default build, so the driver runs every analyzer once per Config.
type Config struct {
	Name   string
	GOARCH string   // empty: the host GOARCH
	Tags   []string // extra build tags (e.g. "noasm")
}

// Configs is the build-configuration matrix adasum-vet analyzes: the
// native build, the pure-Go fallback (noasm tag), and the 32-bit leg
// the CI matrix ships.
func Configs() []Config {
	return []Config{
		{Name: "default"},
		{Name: "noasm", Tags: []string{"noasm"}},
		{Name: "386", GOARCH: "386", Tags: []string{"noasm"}},
	}
}

// A Package is one typechecked module package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader typechecks the module's packages (and, transitively, their
// standard-library imports — from GOROOT source, since the module pins
// zero external dependencies) under one build Config.
type Loader struct {
	cfg     Config
	ctx     build.Context
	fset    *token.FileSet
	modPath string
	modRoot string
	sizes   types.Sizes

	std map[string]*types.Package // import-path cache for dependencies
	mod map[string]*Package       // module packages, with AST + Info
}

// NewLoader returns a Loader for the module rooted at modRoot.
func NewLoader(modRoot string, cfg Config) (*Loader, error) {
	modPath, err := modulePath(modRoot)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.CgoEnabled = false
	ctx.BuildTags = append([]string{}, cfg.Tags...)
	if cfg.GOARCH != "" && cfg.GOARCH != ctx.GOARCH {
		// Changing GOARCH invalidates the host's precomputed tool tags:
		// drop the arch feature tags (amd64.v1, ...) and the
		// register-ABI experiment, which only a handful of 64-bit
		// targets enable. The remaining experiment tags are
		// arch-independent in this toolchain.
		retag := ctx.ToolTags[:0:0]
		for _, t := range ctx.ToolTags {
			if strings.HasPrefix(t, ctx.GOARCH+".") || t == "goexperiment.regabiargs" || t == "goexperiment.regabiwrappers" {
				continue
			}
			retag = append(retag, t)
		}
		ctx.ToolTags = retag
		ctx.GOARCH = cfg.GOARCH
	}
	goarch := ctx.GOARCH
	sizes := types.SizesFor("gc", goarch)
	if sizes == nil {
		return nil, fmt.Errorf("analysis: unknown GOARCH %q", goarch)
	}
	return &Loader{
		cfg:     cfg,
		ctx:     ctx,
		fset:    token.NewFileSet(),
		modPath: modPath,
		modRoot: modRoot,
		sizes:   sizes,
		std:     make(map[string]*types.Package),
		mod:     make(map[string]*Package),
	}, nil
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(modRoot string) (string, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", modRoot)
}

// ModulePackages lists every package directory of the module as an
// import path, sorted. Directories named testdata, hidden directories,
// and directories without buildable (non-test) Go files are skipped.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.modRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if bp, err := l.ctx.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			rel, err := filepath.Rel(l.modRoot, path)
			if err != nil {
				return err
			}
			if rel == "." {
				paths = append(paths, l.modPath)
			} else {
				paths = append(paths, l.modPath+"/"+filepath.ToSlash(rel))
			}
		}
		return nil
	})
	sort.Strings(paths)
	return paths, err
}

// Load returns the typechecked module package at the given import
// path, parsing and checking it (and any dependencies) on first use.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.mod[path]; ok {
		return p, nil
	}
	tp, err := l.importPkg(path)
	if err != nil {
		return nil, err
	}
	p := l.mod[path]
	if p == nil || p.Types != tp {
		return nil, fmt.Errorf("analysis: %s did not load as a module package", path)
	}
	return p, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.importPkg(path)
}

func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.std[path]; ok {
		return p, nil
	}
	if p, ok := l.mod[path]; ok {
		return p.Types, nil
	}
	dir, inModule, err := l.locate(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: locate %s: %w", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var info *types.Info
	if inModule {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
	}
	conf := types.Config{
		Importer: l,
		Sizes:    l.sizes,
		// Collected via the returned error; keep going past the first.
		Error: func(error) {},
	}
	tp, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s (%s): %w", path, l.cfg.Name, err)
	}
	if inModule {
		l.mod[path] = &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tp, Info: info}
	} else {
		l.std[path] = tp
	}
	return tp, nil
}

// locate maps an import path to its source directory: module packages
// under modRoot, everything else under GOROOT/src (with the GOROOT
// vendor tree as fallback, matching the toolchain's own resolution).
func (l *Loader) locate(path string) (dir string, inModule bool, err error) {
	if path == l.modPath {
		return l.modRoot, true, nil
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modRoot, filepath.FromSlash(rest)), true, nil
	}
	goroot := l.ctx.GOROOT
	dir = filepath.Join(goroot, "src", filepath.FromSlash(path))
	if _, statErr := os.Stat(dir); statErr == nil {
		return dir, false, nil
	}
	vdir := filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path))
	if _, statErr := os.Stat(vdir); statErr == nil {
		return vdir, false, nil
	}
	return "", false, fmt.Errorf("analysis: cannot locate package %q (module %s, GOROOT %s)", path, l.modPath, goroot)
}

// CheckDir parses and typechecks the .go files of dir as one package
// with the given import path — the fixture-loading entry point for the
// analyzer tests.
func (l *Loader) CheckDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l, Sizes: l.sizes, Error: func(error) {}}
	tp, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck fixture %s: %w", dir, err)
	}
	return &Package{Path: importPath, Dir: dir, Fset: l.fset, Files: files, Types: tp, Info: info}, nil
}

// LoadedModulePackages returns every module package the loader has
// typechecked so far — the packages asked for via Load plus any module
// dependencies their imports pulled in — sorted by import path for
// deterministic traversal.
func (l *Loader) LoadedModulePackages() []*Package {
	out := make([]*Package, 0, len(l.mod))
	for _, p := range l.mod {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// RunModule applies the analyzers to the analyze packages under one
// configuration: first the per-package checks on each analyze package
// (honoring DetOnly), then every ModuleRun hook once over
// all — the full set of loaded module packages, analyze plus the
// dependencies their imports pulled in — so interprocedural analyses
// can follow calls across package boundaries. Suppressions consumed by
// module passes may live in any package of all; the returned
// annotation indexes (one per package, keyed by import path) feed the
// driver's stale-directive check.
func RunModule(analyze, all []*Package, cfg Config, analyzers []*Analyzer) ([]Diagnostic, map[string]*Annotations, error) {
	annots := make(map[string]*Annotations)
	collect := func(p *Package) *Annotations {
		if a, ok := annots[p.Path]; ok {
			return a
		}
		a := CollectAnnotations(p.Fset, p.Files, cfg.Name)
		annots[p.Path] = a
		return a
	}

	var diags []Diagnostic
	for _, p := range analyze {
		annot := collect(p)
		diags = append(diags, annot.Malformed...)
		for _, az := range analyzers {
			if az.Run == nil || (az.DetOnly && !IsDeterministic(p.Path)) {
				continue
			}
			pass := &Pass{
				Analyzer: az,
				Fset:     p.Fset,
				Files:    p.Files,
				Pkg:      p.Types,
				Info:     p.Info,
				Config:   cfg.Name,
				Annot:    annot,
				diags:    &diags,
			}
			if err := az.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("analysis: %s on %s: %w", az.Name, p.Path, err)
			}
		}
	}

	perPkg := make([]*Annotations, 0, len(all))
	for _, p := range all {
		perPkg = append(perPkg, collect(p))
	}
	merged := MergeAnnotations(perPkg...)
	for _, az := range analyzers {
		if az.ModuleRun == nil {
			continue
		}
		mp := &ModulePass{
			Analyzer: az,
			Fset:     fsetOf(analyze, all),
			Analyze:  analyze,
			All:      all,
			Config:   cfg.Name,
			Annot:    merged,
			diags:    &diags,
		}
		if err := az.ModuleRun(mp); err != nil {
			return nil, nil, fmt.Errorf("analysis: %s (module pass): %w", az.Name, err)
		}
	}
	return diags, annots, nil
}

func fsetOf(analyze, all []*Package) *token.FileSet {
	if len(analyze) > 0 {
		return analyze[0].Fset
	}
	if len(all) > 0 {
		return all[0].Fset
	}
	return token.NewFileSet()
}
