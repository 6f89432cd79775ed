package controller

import (
	"testing"

	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/telemetry"
)

// TestResizeWidthKeepsQID: a width resize re-deploys every member at
// the new geometry under the SAME qid — the query survives, the qid
// counter does not advance, and the deployment remains removable.
func TestResizeWidthKeepsQID(t *testing.T) {
	r, _ := remoteFixture(t, 2)
	qid, _, err := r.Install(query.Q1(3), 1<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	delay, err := r.ResizeWidth(qid, 1<<11)
	if err != nil {
		t.Fatalf("ResizeWidth: %v", err)
	}
	if delay <= 0 {
		t.Error("no modeled resize delay")
	}
	if got := r.want[qid].Width; got != 1<<11 {
		t.Fatalf("Width(%d) = %d, want %d", qid, got, 1<<11)
	}
	// The qid counter did not advance: the next install gets qid+1.
	qid2, _, err := r.Install(query.Q4(40), 1<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if qid2 != qid+1 {
		t.Fatalf("post-resize install qid = %d, want %d — resize consumed a qid", qid2, qid+1)
	}
	// Reconverge is a no-op against the new geometry, and the resized
	// deployment removes cleanly.
	if err := r.Reconverge(); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(qid); err != nil {
		t.Fatal(err)
	}
}

// TestResizeWidthNoopAndUnknown: resizing to the current width touches
// nothing; unknown deployments and zero widths are rejected.
func TestResizeWidthNoopAndUnknown(t *testing.T) {
	r, _ := remoteFixture(t, 1)
	qid, _, err := r.Install(query.Q1(3), 1<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if delay, err := r.ResizeWidth(qid, 1<<10); err != nil || delay != 0 {
		t.Fatalf("same-width resize = (%v, %v), want free no-op", delay, err)
	}
	if _, err := r.ResizeWidth(qid+99, 1<<11); err == nil {
		t.Error("resize of unknown deployment accepted")
	}
	if _, err := r.ResizeWidth(qid, 0); err == nil {
		t.Error("resize to width 0 accepted")
	}
}

// TestResizeWidthOfflineFailsFast: a resize past an offline member
// would leave the fleet with mixed widths, so it must fail in preflight
// with every agent's geometry untouched.
func TestResizeWidthOfflineFailsFast(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			r, sws := fx.build(t, 2)
			qid, _, err := r.Install(query.Q1(3), 1<<10, nil)
			if err != nil {
				t.Fatal(err)
			}
			keep := engineOf(sws[0]).Programs()[0]
			if err := r.SetOffline("b", true); err != nil {
				t.Fatal(err)
			}
			if _, err := r.ResizeWidth(qid, 1<<11); err == nil {
				t.Fatal("resize through an offline member accepted")
			}
			if got := r.want[qid].Width; got != 1<<10 {
				t.Fatalf("failed resize changed recorded width to %d", got)
			}
			if ps := engineOf(sws[0]).Programs(); len(ps) != 1 || ps[0] != keep {
				t.Error("refused resize touched the online member")
			}
		})
	}
}

// TestResizeWidthRollsBackOnFailure: a mid-flight failure (agent "b"
// dies between preflight and its install) must roll the already-resized
// members back toward the old width — the recorded spec stays old, so
// the fleet's geometry remains uniform.
func TestResizeWidthRollsBackOnFailure(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			r, _ := fx.build(t, 2)
			qid, _, err := r.Install(query.Q1(3), 1<<10, nil)
			if err != nil {
				t.Fatal(err)
			}
			kill(r, "b") // dies after preflight; "a" resizes first
			if _, err := r.ResizeWidth(qid, 1<<11); err == nil {
				t.Fatal("resize with a dead member accepted")
			}
			if got := r.want[qid].Width; got != 1<<10 {
				t.Fatalf("failed resize recorded width %d, want old 1024", got)
			}
			// Agent "a" was rolled back to the old geometry: re-driving the old
			// spec at it converges without error.
			if err := r.SetOffline("b", true); err != nil {
				t.Fatal(err)
			}
			if err := r.Reconverge(); err != nil {
				t.Fatalf("reconverge after rollback: %v", err)
			}
		})
	}
}

// TestResizeWidthRepinsExpectedAndAnnounces: with a telemetry service
// attached, a successful resize re-pins the expected-contributor set
// for the new programs and announces the transition so the next merged
// epoch carries width-transition provenance.
func TestResizeWidthRepinsExpectedAndAnnounces(t *testing.T) {
	r, _ := remoteFixture(t, 2)
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	r.AttachTelemetry(svc)

	qid, _, err := r.Install(query.Q1(3), 1<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ResizeWidth(qid, 1<<11); err != nil {
		t.Fatal(err)
	}
	// The transition is pending: the next snapshot at the query's epoch
	// frontier must be flagged. NoteResize state is internal, so observe
	// it through the stats counter after the epoch lands — here we can
	// at least assert the expected set stayed pinned (EpochStatus names
	// both members missing for a never-delivered epoch).
	partial, missing, _ := svc.EpochStatus(qid, 1)
	if !partial || len(missing) != 2 {
		t.Fatalf("EpochStatus after resize = partial=%v missing=%v, want both members pinned", partial, missing)
	}
}
