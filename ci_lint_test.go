// CI lint: a test that CI selects by name must exist. The x3 -race
// step of .github/workflows/ci.yml picks its tests with one -run
// pattern, and each fuzz step names its target with -fuzz; a test
// renamed or deleted without the pattern following it leaves the run
// silently, because `go test -run` matching nothing is not an error.
// TestCIPatternsNameTests turns that into a failure.
package ciflow_test

import (
	"os"
	"path/filepath"
	"regexp"
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
