package telemetry

import (
	"reflect"
	"testing"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/wire"
)

// TestForgetAgentReleasesBookkeeping exercises the analyzer's answer to
// the per-ever-seen-switch leak: ForgetAgent drops the agents-map entry
// and unlearns the switch from learned expected-contributor sets, but
// refuses while a stream is open and never edits controller-pinned
// sets.
func TestForgetAgentReleasesBookkeeping(t *testing.T) {
	s := NewService(ServiceConfig{})

	// Two agents contribute snapshots to query 7 so the service learns
	// them both as expected contributors.
	// ingestSnapshot reads a decoded frame: headers, and cells in the decoder.
	var enc wire.SnapshotEncoder
	keyframe, _ := enc.Encode(nil, 1, []modules.BankSnapshot{{QueryID: 7, Kind: modules.BankCMSRow, Width: 8}})
	cells := new(wire.SnapshotDecoder)
	_, snap, err := cells.Decode(keyframe)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"s1", "s2"} {
		a := s.streamUp(id)
		s.ingestSnapshot(a, id, 1, snap, cells, false, 0)
		s.streamDown(a)
	}
	if got := s.TrackedAgents(); got != 2 {
		t.Fatalf("TrackedAgents = %d, want 2", got)
	}
	if got := s.Contributors(7); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Fatalf("Contributors(7) = %v, want [s1 s2]", got)
	}

	// A live agent cannot be forgotten.
	live := s.streamUp("s1")
	if s.ForgetAgent("s1") {
		t.Fatal("ForgetAgent succeeded on an agent with an open stream")
	}
	s.streamDown(live)

	if !s.ForgetAgent("s1") {
		t.Fatal("ForgetAgent failed on a disconnected agent")
	}
	if s.ForgetAgent("s1") {
		t.Fatal("ForgetAgent succeeded twice for the same agent")
	}
	if got := s.TrackedAgents(); got != 1 {
		t.Fatalf("TrackedAgents = %d after forget, want 1", got)
	}

	// The learned expected set no longer demands s1, so a fresh epoch
	// completed by s2 alone is not partial.
	a2 := s.registerAgent("s2")
	s.ingestSnapshot(a2, "s2", 2, snap, cells, false, 0)
	if partial, missing, _ := s.EpochStatus(7, 2); partial {
		t.Fatalf("epoch 2 partial after forgetting s1, missing %v", missing)
	}

	// Pinned sets stay under controller ownership: forgetting an agent
	// must not edit them.
	s.SetExpected(7, []string{"s2", "s3"})
	a3 := s.streamUp("s3")
	s.streamDown(a3)
	s.ForgetAgent("s3")
	s.ingestSnapshot(a2, "s2", 3, snap, cells, false, 0)
	if partial, missing, _ := s.EpochStatus(7, 3); !partial || len(missing) != 1 || missing[0] != "s3" {
		t.Fatalf("pinned expected set not honored after forget: partial=%v missing=%v", partial, missing)
	}
}
