// CI lint: a test that CI selects by name must exist. The x3 -race
// step of .github/workflows/ci.yml picks its tests with one -run
// pattern, and each fuzz step names its target with -fuzz; a test
// renamed or deleted without the pattern following it leaves the run
// silently, because `go test -run` matching nothing is not an error.
// TestCIPatternsNameTests turns that into a failure.
//
// And exported API must be used: TestExportedFuncsHaveCallers fails on
// an exported function or method under internal/ that only tests call,
// unless exportedFuncAllowlist says why it stays.
package ciflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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

// exportedFuncAllowlist names the exported functions and methods under
// internal/ that no non-test file calls, each with why it stays. A key
// is "pkg.Func" or "pkg.Type.Method"; "*.Method" is the method on any
// type.
var exportedFuncAllowlist = map[string]string{
	"bconv.Converter.ConvertExact": "the exact (Halevi–Polyakov–Shoup) conversion Convert's overshoot is measured against",
	"ckks.Evaluator.Conjugate":     "the CKKS conjugation switch, a Galois trigger no workload drives yet",
	"ckks.Evaluator.InnerSum":      "the rotate-and-sum chain, the unhoistable case no workload drives yet",
	"ring.Ring.InfNorm":            "the noise measurement of the hks and ring tests",
	"ring.Ring.Automorphism":       "the coefficient-domain automorphism, the oracle of AutomorphismNTT",
	"ring.Ring.MulScalar":          "the scalar product MulTowerScalars is checked against",
	"ring.Ring.MulTowerScalars":    "per-tower scalars of the ring API; the replay scales with mod.MulSumScalars",
	"workload.Scenario":            "builds the library scenarios the committed schedule goldens hold",
	"analysis.SpillFreeMemoryMiB":  "the smallest spill-free memory, which the memory tests hold to the model",
	"*.MarshalJSON":                "called by encoding/json",
	"*.UnmarshalJSON":              "called by encoding/json",
}

// exportedFunc is one exported function or method declared under
// internal/.
type exportedFunc struct {
	key  string // "pkg.Func" or "pkg.Type.Method"
	path string // import path of its package
	name string
	recv bool
}

// recvName is the type name of a method receiver, without pointer or
// type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// nonTestFiles parses every non-test Go file under root, by directory.
func nonTestFiles(t *testing.T, root string) map[string][]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	out := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		out[filepath.Dir(path)] = append(out[filepath.Dir(path)], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// references collects what the non-test files use: every selector's
// name (a method is matched by name alone, whatever its receiver),
// every package-qualified name as "path.Name", and every bare
// identifier per package directory, declarations' own names excluded.
type references struct {
	selectors map[string]bool
	qualified map[string]bool
	local     map[string]map[string]bool
}

func collectReferences(byDir map[string][]*ast.File) references {
	refs := references{selectors: map[string]bool{}, qualified: map[string]bool{}, local: map[string]map[string]bool{}}
	for dir, files := range byDir {
		local := map[string]bool{}
		refs.local[dir] = local
		for _, f := range files {
			imports := map[string]string{}
			for _, im := range f.Imports {
				path := strings.Trim(im.Path.Value, `"`)
				name := filepath.Base(path)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = path
			}
			// Not bare identifiers: declared names and selected ones.
			skip := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					skip[fd.Name] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.ImportSpec:
					return false
				case *ast.SelectorExpr:
					skip[x.Sel] = true
					refs.selectors[x.Sel.Name] = true
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						refs.qualified[imports[id.Name]+"."+x.Sel.Name] = true
					}
				case *ast.Ident:
					if !skip[x] {
						local[x.Name] = true
					}
				}
				return true
			})
		}
	}
	return refs
}

// TestExportedFuncsHaveCallers: every exported function or method
// declared in a non-test file under internal/ is referenced from some
// non-test file of the module — its own package, another package, a
// command, an example or the benchmark — or is in
// exportedFuncAllowlist. An exported name that only tests call is API
// nothing uses: delete it, or unexport it if its package's tests need
// it. An allowlist entry that names nothing, or a function that has
// since gained a caller, fails too, so the list only shrinks.
func TestExportedFuncsHaveCallers(t *testing.T) {
	const module = "ciflow"
	var decls []exportedFunc
	for dir, files := range nonTestFiles(t, "internal") {
		pkg := filepath.Base(dir)
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				ef := exportedFunc{key: pkg + "." + fd.Name.Name, path: module + "/" + filepath.ToSlash(dir), name: fd.Name.Name}
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					ef.key, ef.recv = pkg+"."+recvName(fd.Recv.List[0].Type)+"."+fd.Name.Name, true
				}
				decls = append(decls, ef)
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/")
	}
	refs := collectReferences(nonTestFiles(t, "."))

	used := map[string]bool{}
	var unused []string
	for _, ef := range decls {
		called := refs.selectors[ef.name]
		if !ef.recv {
			dir := strings.TrimPrefix(ef.path, module+"/")
			called = refs.qualified[ef.path+"."+ef.name] || refs.local[filepath.FromSlash(dir)][ef.name]
		}
		key := ef.key
		if _, ok := exportedFuncAllowlist[key]; !ok && ef.recv {
			key = "*." + ef.name
		}
		if _, ok := exportedFuncAllowlist[key]; ok {
			used[key] = true
			if called && !strings.HasPrefix(key, "*.") {
				t.Errorf("%s has a caller outside tests now: take it off exportedFuncAllowlist", ef.key)
			}
			continue
		}
		if !called {
			unused = append(unused, ef.key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported but no non-test file references it: delete or unexport it, or add it to exportedFuncAllowlist with a reason", key)
	}
	for key := range exportedFuncAllowlist {
		if !used[key] {
			t.Errorf("exportedFuncAllowlist entry %q names no exported function under internal/", key)
		}
	}
}
