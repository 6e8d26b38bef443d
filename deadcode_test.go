package ppchecker

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadcodeAllowlist names the functions and methods that production
// code does not reach but that stay on purpose, keyed as
// "<import path>.<Func>" or "<import path>.<Type>.<Method>", with the
// reason each one is kept.
var deadcodeAllowlist = map[string]string{
	"ppchecker/internal/actrie.Automaton.TokenValues":  "the gated BenchmarkLexiconMatch calls it",
	"ppchecker/internal/verbs.LemmaMaskOf":             "the gated BenchmarkLexiconMatch calls it",
	"ppchecker/internal/apg.APG.Entries":               "call-graph query TestMethodGraphInvariant pins",
	"ppchecker/internal/apg.APG.MethodReachable":       "call-graph query TestMethodGraphInvariant pins",
	"ppchecker/internal/apg.APG.CallPath":              "call-graph query TestMethodGraphInvariant pins",
	"ppchecker/internal/dex.Dex.Lookup":                "reference resolution the APG's method table is checked against",
	"ppchecker/internal/policy.hasConsentExceptionRef": "reference oracle of the consent-exception screen",
	"ppchecker/internal/policy.isDisclaimerRef":        "reference oracle of the disclaimer screen",
	"ppchecker/internal/policy.Analysis.NotSet":        "tests read the analysis through it",
	"ppchecker/internal/policy.Analysis.PositiveSet":   "tests read the analysis through it",
	"ppchecker/internal/obs.Snapshot.Counter":          "tests read a run's counters through it",
	"ppchecker/internal/obs.Snapshot.Stage":            "tests read a run's stage histograms through it",
	"ppchecker/internal/memo.Map.Range":                "tests walk the memo's entries through it",
	"ppchecker/internal/sensitive.APIs":                "tests check the sensitive-API table through it",
	"ppchecker/internal/sensitive.AllPermissions":      "tests check the permission table through it",
	"ppchecker/internal/sensitive.InfoForURIField":     "tests check the URI-field table through it",
	"ppchecker/internal/sensitive.Sinks":               "tests check the sink table through it",
	"ppchecker/internal/sensitive.URIStrings":          "tests check the URI-string table through it",
	"ppchecker/internal/dist.Standby.Promoted":         "the failover tests wait on promotion through it",
	"ppchecker/internal/synth.NewCorruptor":            "fault injector the robustness tests and fuzz seeds are built with",
	"ppchecker/internal/synth.AllFaults":               "fault injector the robustness tests and fuzz seeds are built with",
	"ppchecker/internal/synth.Fault.PolicyFault":       "fault injector the robustness tests and fuzz seeds are built with",
	"ppchecker/internal/synth.BombDex":                 "fault injector the robustness tests and fuzz seeds are built with",
	"ppchecker/internal/synth.Corruptor.CorruptAPK":    "fault injector the robustness tests and fuzz seeds are built with",
	"ppchecker/internal/synth.Corruptor.CorruptBundle": "fault injector the robustness tests and fuzz seeds are built with",
	"ppchecker/internal/synth.Corruptor.CorruptCorpus": "fault injector the robustness tests and fuzz seeds are built with",
	"ppchecker/internal/synth.Corruptor.CorruptPolicy": "fault injector the robustness tests and fuzz seeds are built with",
	"ppchecker/internal/synth.Corruptor.Mangle":        "fault injector the robustness tests and fuzz seeds are built with",
}

// dynamicIfaces declares the interfaces the standard library asserts
// without naming them (errors.Is, errors.As, errors.Unwrap): the
// source importer keeps no record of those assertions, so methods that
// satisfy them are counted through these declarations.
const dynamicIfaces = `package dynamic

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// TestNoDeadCode type-checks every non-test Go file of the module, with
// the ledger module under bench/ as one more consumer, and fails on any
// function or method that no non-test code reaches. Roots are main and
// init functions, package-level initializers, the exported API of the
// root package, everything in bench/, the allowlist above, and methods
// that satisfy an interface. A use inside a function counts only once
// that function is itself reached, so a chain of functions that only
// call each other is reported whole.
func TestNoDeadCode(t *testing.T) {
	prog, err := loadProgram(".", "ppchecker")
	if err != nil {
		t.Fatal(err)
	}
	dead := prog.unreached()
	for _, key := range dead {
		t.Errorf("%s has no non-test use: delete it, or add it to deadcodeAllowlist with its reason", key)
	}
	for key := range deadcodeAllowlist {
		if _, ok := prog.funcs[key]; !ok {
			t.Errorf("deadcodeAllowlist names %s, which no longer exists", key)
		}
	}
}

// deadProgram is the type-checked module: every declared function, and
// the functions each one (or package-level code) refers to.
type deadProgram struct {
	fset *token.FileSet
	pkgs map[string]*deadPackage
	std  types.Importer
	// funcs holds every function and method declared outside bench/,
	// by key.
	funcs map[string]*types.Func
	// refs[f] lists the functions f's body refers to; refs[nil] lists
	// those referred to outside any function body or anywhere in
	// bench/, which are always reached.
	refs   map[*types.Func][]*types.Func
	ifaces map[string][]*types.Interface // method name -> interfaces
}

type deadPackage struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func loadProgram(root, module string) (*deadProgram, error) {
	// The analysis needs types only; cgo variants of the standard
	// library would need a C toolchain to type-check from source. The
	// source importer reads build.Default, so the switch is global for
	// the duration of the load.
	defer func(old bool) { build.Default.CgoEnabled = old }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	p := &deadProgram{
		fset:   fset,
		pkgs:   map[string]*deadPackage{},
		std:    importer.ForCompiler(fset, "source", nil),
		funcs:  map[string]*types.Func{},
		refs:   map[*types.Func][]*types.Func{},
		ifaces: map[string][]*types.Interface{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel := filepath.ToSlash(path)
		ipath := module
		if rel != "." {
			ipath += "/" + rel
		}
		pkg := &deadPackage{path: ipath}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(path, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files = append(pkg.files, af)
		}
		p.pkgs[ipath] = pkg
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, pkg := range p.pkgs {
		if _, err := p.check(pkg); err != nil {
			return nil, err
		}
	}
	for _, pkg := range p.pkgs {
		p.index(pkg, module)
	}
	dyn, err := parser.ParseFile(fset, "dynamic.go", dynamicIfaces, 0)
	if err != nil {
		return nil, err
	}
	dynPkg, err := (&types.Config{Importer: p}).Check("dynamic", fset, []*ast.File{dyn}, nil)
	if err != nil {
		return nil, err
	}
	scope := dynPkg.Scope()
	for _, name := range scope.Names() {
		p.addIface(scope.Lookup(name).Type().Underlying().(*types.Interface))
	}
	return p, nil
}

// Import resolves module packages from the walked tree and everything
// else through the source importer.
func (p *deadProgram) Import(path string) (*types.Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return p.check(pkg)
	}
	return p.std.Import(path)
}

func (p *deadProgram) check(pkg *deadPackage) (*types.Package, error) {
	if pkg.types != nil {
		return pkg.types, nil
	}
	pkg.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: p}
	tp, err := conf.Check(pkg.path, p.fset, pkg.files, pkg.info)
	if err != nil {
		return nil, err
	}
	pkg.types = tp
	return tp, nil
}

// index records pkg's declarations, its references, and the interfaces
// it and its imports declare.
func (p *deadProgram) index(pkg *deadPackage, module string) {
	inBench := pkg.path == module+"/bench" || strings.HasPrefix(pkg.path, module+"/bench/")
	for _, f := range pkg.files {
		// Each use is attributed to the top-level function whose body
		// holds it, or to nil outside any body and in bench/.
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				var encl *types.Func
				if !inBench {
					encl = pkg.info.Defs[d.Name].(*types.Func)
					p.funcs[funcKey(encl)] = encl
				}
				if d.Body != nil {
					ast.Inspect(d.Body, p.collect(pkg, encl))
				}
			case *ast.GenDecl:
				ast.Inspect(d, p.collect(pkg, nil))
			}
		}
	}
	for _, tv := range pkg.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			p.addIface(it)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					p.addIface(it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	walk(pkg.types)
}

func (p *deadProgram) collect(pkg *deadPackage, encl *types.Func) func(ast.Node) bool {
	return func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := pkg.info.Uses[id].(*types.Func); ok {
			fn = fn.Origin()
			if fn != encl {
				p.refs[encl] = append(p.refs[encl], fn)
			}
		}
		return true
	}
}

func (p *deadProgram) addIface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		p.ifaces[name] = append(p.ifaces[name], it)
	}
}

// satisfies reports whether method m is part of some interface its
// receiver type implements, so a dynamic call can reach it.
func (p *deadProgram) satisfies(m *types.Func) bool {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, it := range p.ifaces[m.Name()] {
		if it.NumMethods() == 0 {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// unreached returns the sorted keys of every function outside bench/
// that no root reaches.
func (p *deadProgram) unreached() []string {
	reached := map[*types.Func]bool{}
	var queue []*types.Func
	mark := func(fn *types.Func) {
		if !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	for _, fn := range p.refs[nil] {
		mark(fn)
	}
	for key, fn := range p.funcs {
		name := fn.Name()
		pkg := fn.Pkg()
		isMethod := fn.Type().(*types.Signature).Recv() != nil
		switch {
		case deadcodeAllowlist[key] != "",
			!isMethod && (name == "init" || name == "main" && pkg.Name() == "main"),
			pkg.Path() == "ppchecker" && fn.Exported() && !isMethod,
			isMethod && p.satisfies(fn):
			mark(fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, r := range p.refs[fn] {
			mark(r)
		}
	}
	var dead []string
	for key, fn := range p.funcs {
		if !reached[fn] {
			dead = append(dead, key+" ("+p.fset.Position(fn.Pos()).String()+")")
		}
	}
	sort.Strings(dead)
	return dead
}

// funcKey names fn as "<import path>.<Func>" or
// "<import path>.<Type>.<Method>".
func funcKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
