package newton_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkModuleSmoke puts the perf ledger under tier-1. benchmark/
// is a Go module of its own (the harness contract), so `go build ./...`
// and `go test ./...` here neither compile nor run it, and a change to an
// internal API it calls would show only in CI. This builds it against the
// working tree and runs the smallest workload end to end: a real loopback
// fleet under intent churn for one second, output checks on.
func TestBenchmarkModuleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark module (~2 s)")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := filepath.Join(t.TempDir(), "newton-benchmark")
	build := exec.Command(goBin, "build", "-buildvcs=false", "-o", bin, ".")
	build.Dir = "benchmark"
	// The module needs nothing but this tree (a replace directive): never
	// let a build reach for the network.
	build.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("benchmark/ does not build against this tree: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	run := exec.Command(bin, "-short", "-workload", "churn", "-seconds", "1")
	run.Dir = "benchmark"
	run.Stdout, run.Stderr = &stdout, &stderr
	if err := run.Run(); err != nil {
		t.Fatalf("benchmark -short -workload churn: %v\n%s%s", err, stdout.Bytes(), stderr.Bytes())
	}
	// The last line of standard output is the result object.
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last output line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("churn smoke: correct=%v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
	}
}
