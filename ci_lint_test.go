// CI lint: a test that CI selects by name must exist. The x3 -race
// step of .github/workflows/ci.yml picks its tests with one -run
// pattern, and each fuzz step names its target with -fuzz; a test
// renamed or deleted without the pattern following it leaves the run
// silently, because `go test -run` matching nothing is not an error.
// TestCIPatternsNameTests turns that into a failure.
//
// And exported API must be used: TestExportedFuncsHaveCallers fails on
// an exported func, method, type, var or const under internal/ that
// only tests use, unless exportedAllowlist says why it stays.
package ciflow_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

const ciFile = ".github/workflows/ci.yml"

var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// testFuncs returns the names of the Test and Fuzz functions declared
// in the test files of the package in dir (a "./path" argument of
// `go test`).
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no test files in %s", ciFile, dir)
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// packageArgs returns the package arguments ("./…") among fields.
func packageArgs(fields []string) []string {
	var pkgs []string
	for _, f := range fields {
		if strings.HasPrefix(f, "./") {
			pkgs = append(pkgs, f)
		}
	}
	return pkgs
}

// flagValue returns the argument that follows flag in fields, without
// its shell quotes.
func flagValue(fields []string, flag string) (string, bool) {
	for i := 0; i+1 < len(fields); i++ {
		if fields[i] == flag {
			return strings.Trim(fields[i+1], `'"`), true
		}
	}
	return "", false
}

// matching returns the names among names that pattern matches.
func matching(t *testing.T, pattern string, names []string) []string {
	t.Helper()
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Fatalf("%s: pattern %q: %v", ciFile, pattern, err)
	}
	var out []string
	for _, n := range names {
		if re.MatchString(n) {
			out = append(out, n)
		}
	}
	return out
}

func TestCIPatternsNameTests(t *testing.T) {
	raw, err := os.ReadFile(ciFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")

	raceSteps := 0
	for _, line := range lines {
		fields := strings.Fields(line)
		if !strings.Contains(line, "go test -race -count=3") {
			continue
		}
		raceSteps++
		pattern, ok := flagValue(fields, "-run")
		if !ok {
			t.Fatalf("%s: the x3 race step has no -run pattern: %s", ciFile, line)
		}
		var names []string
		for _, pkg := range packageArgs(fields) {
			names = append(names, testFuncs(t, pkg)...)
		}
		for _, alt := range strings.Split(pattern, "|") {
			if len(matching(t, alt, names)) == 0 {
				t.Errorf("%s: x3 race alternative %q names no Test or Fuzz function in %v", ciFile, alt, packageArgs(fields))
			}
		}
	}
	if raceSteps != 1 {
		t.Fatalf("%s: found %d x3 race steps, want 1", ciFile, raceSteps)
	}

	// A fuzz step's target is a literal, or "$target" inside a
	// `for target in …; do` loop, each of whose words it takes.
	var loopTargets []string
	fuzzSteps := 0
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) > 0 && fields[0] == "done" {
			loopTargets = nil
			continue
		}
		if len(fields) > 3 && fields[0] == "for" && fields[2] == "in" {
			loopTargets = nil
			for _, w := range fields[3:] {
				loopTargets = append(loopTargets, strings.TrimSuffix(w, ";"))
				if strings.HasSuffix(w, ";") {
					break
				}
			}
			continue
		}
		target, ok := flagValue(fields, "-fuzz")
		if !ok || !strings.Contains(line, "go test") {
			continue
		}
		target = strings.ReplaceAll(target, `\$`, "$")
		patterns := []string{target}
		if strings.Contains(target, "$target") {
			if loopTargets == nil {
				t.Fatalf("%s: %q outside a for-target loop", ciFile, target)
			}
			patterns = nil
			for _, name := range loopTargets {
				patterns = append(patterns, strings.ReplaceAll(target, "$target", name))
			}
		}
		for _, pkg := range packageArgs(fields) {
			var fuzzers []string
			for _, n := range testFuncs(t, pkg) {
				if strings.HasPrefix(n, "Fuzz") {
					fuzzers = append(fuzzers, n)
				}
			}
			for _, p := range patterns {
				fuzzSteps++
				// go test refuses to fuzz when -fuzz matches more than one.
				if got := matching(t, p, fuzzers); len(got) != 1 {
					t.Errorf("%s: -fuzz %q matches %v in %s, want one Fuzz function", ciFile, p, got, pkg)
				}
			}
		}
	}
	if fuzzSteps == 0 {
		t.Fatalf("%s: found no -fuzz target", ciFile)
	}
}

// exportedAllowlist names the exported API under internal/ that no
// non-test file uses, each with the test, golden or reflection that
// needs it. A key is "pkg.Name" for a func, type, var or const,
// "pkg.Type.Method" for a method, or "*.Method" for the method of that
// name on any type.
var exportedAllowlist = map[string]string{
	"bconv.Converter.ConvertExact": "the exact (Halevi–Polyakov–Shoup) conversion Convert's overshoot is measured against",
	"ring.Ring.InfNorm":            "the noise measurement of the hks and ring tests",
	"ring.Ring.Automorphism":       "the coefficient-domain automorphism, the oracle of AutomorphismNTT",
	"ring.Ring.MulScalar":          "the scalar product MulTowerScalars is checked against",
	"ring.Ring.MulTowerScalars":    "the gadget scaling of the hks gadget and key-generation oracles; the replay scales with mod.MulSumScalars",
	"workload.Scenario":            "builds the library scenarios the committed schedule goldens hold",
	"analysis.SpillFreeMemoryMiB":  "the smallest spill-free memory, which the memory tests hold to the model",
	"analysis.ResNet20":            "the paper's motivating workload (§I), whose key-switch count and estimates the analysis tests pin",
	"engine.Graph.Len":             "the node count hks's schedule tests pin",
	"cluster.FrameType.String":     "called by fmt, for the frame names in the wire errors' %v",
	"dataflow.TaskKind.String":     "called by fmt, for the task kinds TestProgramsGolden hashes into programs.golden",
	"*.MarshalJSON":                "called by encoding/json",
	"*.UnmarshalJSON":              "called by encoding/json",
}

// apiEntry is one exported name declared under internal/.
type apiEntry struct {
	key  string         // as exportedAllowlist keys it
	own  [][2]token.Pos // its own declaration: uses inside it do not count
	used bool
}

func (e *apiEntry) owns(pos token.Pos) bool {
	for _, span := range e.own {
		if span[0] <= pos && pos < span[1] {
			return true
		}
	}
	return false
}

// moduleLoader type-checks a module's packages from their non-test
// files, as go/build selects them for this platform, and the standard
// library from source. Every module package records into one Info.
type moduleLoader struct {
	fset         *token.FileSet
	root, module string
	std          types.Importer
	pkgs         map[string]*types.Package
	files        map[string][]*ast.File
	info         *types.Info
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.module)
	if !ok || (rel != "" && rel[0] != '/') {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = p, files
	return p, nil
}

// moduleAPI returns every exported func, type, var and const declared
// under root/internal in the module at root, and every exported method
// of a type declared there, each with whether a non-test file of the
// module uses it outside its own declaration. A method counts as used
// where a non-test file selects it on its own receiver type (directly,
// promoted through an embedded field, or as a method value), or
// selects a same-named method of an interface its type (or a pointer
// to it) implements.
func moduleAPI(root string) (map[string]*apiEntry, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(gomod)
	if m == nil {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset: fset, root: root, module: string(m[1]),
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}},
	}
	var internal []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := l.module
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.Import(pkg); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/") {
			internal = append(internal, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	api := map[types.Object]*apiEntry{}
	var methods []*types.Func
	for _, path := range internal {
		p := l.pkgs[path]
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if obj.Exported() {
				api[obj] = &apiEntry{key: p.Name() + "." + name}
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() {
					api[fn] = &apiEntry{key: p.Name() + "." + name + "." + fn.Name()}
					methods = append(methods, fn)
				}
			}
		}
		// A declaration's own span, and its methods' receivers for a
		// type, are not uses of it.
		own := func(obj types.Object, n ast.Node) {
			if e := api[obj]; e != nil {
				e.own = append(e.own, [2]token.Pos{n.Pos(), n.End()})
			}
		}
		for _, f := range l.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := l.info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					own(fn, d)
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						own(receiverType(recv.Type()).Obj(), d.Recv)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							own(l.info.Defs[s.Name], s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								own(l.info.Defs[n], s)
							}
						}
					}
				}
			}
		}
	}

	for id, obj := range l.info.Uses {
		if e := api[origin(obj)]; e != nil && !e.owns(id.Pos()) {
			e.used = true
		}
	}
	// A call through an interface reaches every method of that name
	// whose type implements the interface.
	for sel, s := range l.info.Selections {
		if !types.IsInterface(s.Recv()) {
			continue
		}
		iface := s.Recv().Underlying().(*types.Interface)
		for _, fn := range methods {
			e := api[fn]
			if e.used || fn.Name() != s.Obj().Name() || e.owns(sel.Pos()) {
				continue
			}
			named := receiverType(fn.Type().(*types.Signature).Recv().Type())
			if named.TypeParams().Len() == 0 && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				e.used = true
			}
		}
	}
	out := map[string]*apiEntry{}
	for _, e := range api {
		out[e.key] = e
	}
	return out, nil
}

// receiverType is the named type of a method receiver, through its
// pointer.
func receiverType(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t).(*types.Named)
}

// origin maps a use of an instantiated generic func, method or field
// back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// unusedAPI lists, sorted, the keys of what no non-test file uses.
func unusedAPI(api map[string]*apiEntry) []string {
	var keys []string
	for key, e := range api {
		if !e.used {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestExportedFuncsHaveCallers: every exported func, type, var and
// const declared in a non-test file under internal/, and every
// exported method of a type declared there, is used by some non-test
// file of the module — its own package, another package, a command, an
// example or the benchmark — or is in exportedAllowlist. A method is
// matched by its receiver's type (moduleAPI), so another type's method
// of the same name does not keep it. An exported name that only tests
// use is API nothing uses: delete it, or unexport it if its package's
// tests need it. An allowlist entry that names nothing, or a name that
// has since gained a use, fails too, so the list only shrinks.
func TestExportedFuncsHaveCallers(t *testing.T) {
	api, err := moduleAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(api) == 0 {
		t.Fatal("no exported API found under internal/")
	}
	listed := map[string]bool{}
	for _, key := range slices.Sorted(maps.Keys(api)) {
		entry := key
		if _, ok := exportedAllowlist[entry]; !ok && strings.Count(key, ".") == 2 {
			entry = "*" + key[strings.LastIndexByte(key, '.'):]
		}
		if _, ok := exportedAllowlist[entry]; !ok {
			if !api[key].used {
				t.Errorf("%s is exported but no non-test file uses it: delete or unexport it, or add it to exportedAllowlist with a reason", key)
			}
			continue
		}
		listed[entry] = true
		if api[key].used && entry == key {
			t.Errorf("%s has a use outside tests now: take it off exportedAllowlist", key)
		}
	}
	for key := range exportedAllowlist {
		if !listed[key] {
			t.Errorf("exportedAllowlist entry %q names no exported API under internal/", key)
		}
	}
}

// TestModuleAPIMatchesMethodsByType runs moduleAPI on a small module:
// types A and B each export Foo and main calls only A's, C's Bar is
// reached only through an interface, and nothing reads the var
// Unread. What only a test file or a file go/build leaves out uses
// does not count.
func TestModuleAPIMatchesMethodsByType(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module lintcase\n\ngo 1.24\n",
		"internal/a/a.go": `package a

type A struct{}

func (A) Foo() {}

type B struct{}

func (B) Foo() {}

type C struct{}

func (*C) Bar() {}

var Unread = 1
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestB(t *testing.T) { B{}.Foo(); _ = Unread }
`,
		"internal/a/ignored.go": `//go:build ignore

package a

func init() { B{}.Foo() }
`,
		"main.go": `package main

import "lintcase/internal/a"

type barer interface{ Bar() }

func main() {
	a.A{}.Foo()
	var b barer = &a.C{}
	b.Bar()
	_ = a.B{}
}
`,
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	api, err := moduleAPI(root)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := unusedAPI(api), []string{"a.B.Foo", "a.Unread"}; !slices.Equal(got, want) {
		t.Fatalf("unused %v, want %v", got, want)
	}
	// A method matched by name alone, whatever its receiver, would
	// pass B.Foo: main.go selects a Foo.
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := false
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Foo" {
			byName = true
		}
		return true
	})
	if !byName {
		t.Fatal("main.go selects no Foo: the case no longer tells a type-aware match from a match by name")
	}
}
