package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
)

var update = flag.Bool("update", false, "rewrite testdata/programs.golden from this run")

// goldenPath holds the install encoding of every program the golden
// sweep builds, one line each: a label, then the hex bytes, or "!" and
// the refusal of a cut SliceProgram does not make.
const goldenPath = "testdata/programs.golden"

// goldenLine is one line of goldenPath: the program built under label,
// or err when building it was refused.
type goldenLine struct {
	label string
	prog  *modules.Program
	err   error
}

// goldenSweep builds every program the golden file pins: the catalog
// under AllOpts at each ladder rung, under Baseline at 1024, and each
// of those two 1024-wide sets sliced at 2…12 stages per switch.
func goldenSweep(t testing.TB) []goldenLine {
	t.Helper()
	var out []goldenLine
	compile := func(label string, i int, o compiler.Options) *modules.Program {
		o.QID = i + 1
		p, err := compiler.Compile(query.All()[i], o)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		out = append(out, goldenLine{label: label, prog: p})
		return p
	}
	for _, w := range []uint32{256, 512, 1024, 2048, 4096} {
		for i, q := range query.All() {
			o := compiler.AllOpts()
			o.Width = w
			compile(fmt.Sprintf("allopts/w%d/%s", w, q.Name), i, o)
		}
	}
	for _, set := range []struct {
		name string
		opts compiler.Options
	}{{"allopts", compiler.AllOpts()}, {"baseline", compiler.Baseline()}} {
		for i, q := range query.All() {
			o := set.opts
			o.Width = 1024
			whole := compile(fmt.Sprintf("%s/w1024/%s", set.name, q.Name), i, o)
			if set.name == "allopts" {
				out = out[:len(out)-1] // already pinned by the rung sweep
			}
			for per := 2; per <= 12; per++ {
				label := fmt.Sprintf("slice/%s/%s/per%d", set.name, q.Name, per)
				parts, err := modules.SliceProgram(whole, per)
				if err != nil {
					out = append(out, goldenLine{label: label, err: err})
					continue
				}
				for k, p := range parts {
					out = append(out, goldenLine{label: fmt.Sprintf("%s/part%d", label, k), prog: p})
				}
			}
		}
	}
	return out
}

// String renders the line as goldenPath holds it.
func (g goldenLine) String() string {
	if g.err != nil {
		return g.label + " ! " + g.err.Error()
	}
	return g.label + " " + hex.EncodeToString(AppendProgram(nil, g.prog))
}

// TestProgramsMatchGolden holds every program the compiler and the
// slicer build, and each one's Clone, to the encodings recorded in
// goldenPath byte for byte, and each decoded golden encoding to the
// built program under reflect.DeepEqual: the arena a program is built
// in is not visible in what it is. -update rewrites the file.
func TestProgramsMatchGolden(t *testing.T) {
	lines := goldenSweep(t)
	if *update {
		var b bytes.Buffer
		for _, g := range lines {
			fmt.Fprintln(&b, g)
		}
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	n := 0
	for ; sc.Scan(); n++ {
		if n >= len(lines) {
			t.Fatalf("%s has more lines than the sweep builds (%d)", goldenPath, len(lines))
		}
		g, want := lines[n], sc.Text()
		if got := g.String(); got != want {
			t.Fatalf("line %d:\n got %.200s\nwant %.200s", n+1, got, want)
		}
		if g.err != nil {
			continue
		}
		enc, _ := hex.DecodeString(want[strings.IndexByte(want, ' ')+1:])
		if c := AppendProgram(nil, g.prog.Clone()); !bytes.Equal(c, enc) {
			t.Fatalf("%s: its clone encodes to other bytes", g.label)
		}
		dec, err := DecodeProgram(enc)
		if err != nil {
			t.Fatalf("%s: %v", g.label, err)
		}
		if !reflect.DeepEqual(dec, g.prog) {
			t.Fatalf("%s: the decoded golden encoding is not the built program", g.label)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(lines) {
		t.Fatalf("%s has %d lines, the sweep builds %d", goldenPath, n, len(lines))
	}
	t.Logf("%d programs and refusals match", n)
}
