package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from this run")

// TestStatusKillGolden pins `newton-ctl status -kill s2`: the health
// table, the wire table, the event log and the surviving installs. The
// monitor keeps time in rounds, so every run prints the same bytes.
func TestStatusKillGolden(t *testing.T) {
	var out bytes.Buffer
	if err := runStatus(&out, []string{"-kill", "s2"}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "status-kill-s2.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("status -kill s2 printed\n%s\nwant (%s)\n%s", out.Bytes(), golden, want)
	}
}

// TestStatusRefusesUnknownSwitch: a bad -kill is an error the caller
// sees, not an exit.
func TestStatusRefusesUnknownSwitch(t *testing.T) {
	err := runStatus(io.Discard, []string{"-kill", "s9"})
	if err == nil || !strings.Contains(err.Error(), `unknown switch "s9"`) {
		t.Fatalf("runStatus -kill s9 = %v, want the unknown switch refused", err)
	}
}
