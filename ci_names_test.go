package newton_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCINamedTestsExist: `go test -run` with a name that matches nothing
// exits 0, so a test deleted or renamed without its line in ci.yml stops
// running and no job turns red. Every name the workflow selects by -run,
// -fuzz or -bench must be the prefix of a test, fuzz or benchmark
// function somewhere in the tree.
func TestCINamedTestsExist(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	selected := 0
	// Only on `go test` lines: newton-bench has a -run of its own.
	goTest := regexp.MustCompile(`(?m)^.*\bgo test\b.*$`)
	selector := regexp.MustCompile(` -(?:run|fuzz|bench) +(?:'([^']*)'|(\S+))`)
	for _, m := range selector.FindAllSubmatch(bytes.Join(goTest.FindAll(ci, -1), []byte("\n")), -1) {
		for _, name := range strings.Split(string(m[1])+string(m[2]), "|") {
			if name = strings.Trim(name, "^$"); name == "" {
				continue // -run '^$': no tests, only the fuzz or bench target
			}
			selected++
			if !slices.ContainsFunc(funcs, func(fn string) bool { return strings.HasPrefix(fn, name) }) {
				t.Errorf("ci.yml selects %q, which is the prefix of no Test, Fuzz or Benchmark function", name)
			}
		}
	}
	if selected == 0 {
		t.Fatal("found no -run, -fuzz or -bench name in ci.yml: the pattern no longer reads the workflow")
	}
}
