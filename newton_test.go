package newton

import (
	"testing"
	"time"
)

// TestPublicAPIEndToEnd drives the whole system through the facade the
// way a downstream user would: build a query, deploy it, replay traffic,
// consume reports, tear it down.
func TestPublicAPIEndToEnd(t *testing.T) {
	topo, h1, h2 := LinearTopology(2)
	net, err := NewNetwork(topo, NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(net, 1)

	q := NewQuery("api_syn_flood").
		Filter(Eq(FieldProto, ProtoTCP), Eq(FieldTCPFlags, FlagSYN)).
		Map(FieldDstIP).
		ReduceCount(FieldDstIP).
		FilterResultGt(40).
		Build()

	dep, delay, err := ctl.Install(Deploy{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if delay <= 0 || delay > 25*time.Millisecond {
		t.Errorf("install delay %v out of envelope", delay)
	}

	victim := uint32(0x0A0000AA)
	tr := GenerateTrace(TraceConfig{Seed: 7, Flows: 200, Duration: 200 * time.Millisecond},
		SYNFlood{Victim: victim, Packets: 400})
	for _, pkt := range tr.Packets {
		net.Deliver(pkt, h1, h2)
	}

	col := NewCollector(q.Window, q.ReportKeys())
	col.AddAll(net.DrainReports())
	if !col.FlaggedKeys()[uint64(victim)] {
		t.Fatal("victim not flagged through the public API")
	}

	// Cross-check against the reference engine.
	ref := NewReferenceEngine(q)
	ref.Run(tr.Packets)
	if !ref.FlaggedKeys()[uint64(victim)] {
		t.Fatal("reference engine disagrees")
	}

	if _, err := ctl.Remove(dep.QID); err != nil {
		t.Fatal(err)
	}
}

func TestPublicCatalogAndCompile(t *testing.T) {
	qs := AllQueries()
	if len(qs) != 9 {
		t.Fatalf("catalog size %d", len(qs))
	}
	for i, q := range qs {
		p, err := Compile(q, DefaultCompileOptions())
		if err != nil {
			t.Fatalf("Q%d: %v", i+1, err)
		}
		s := MeasureProgram(q, p)
		if s.Modules == 0 || s.Stages == 0 {
			t.Errorf("Q%d stats empty: %+v", i+1, s)
		}
	}
	if _, err := QueryByName("q6"); err != nil {
		t.Error(err)
	}
	if q := Q6(30); q.NumPrimitives() != 12 {
		t.Error("Q6 shape drifted")
	}
}

func TestPublicMasksAndTopologies(t *testing.T) {
	m := PrefixMask(FieldSrcIP, 24)
	if got := m[FieldSrcIP]; got != 0xFFFFFF00 {
		t.Errorf("PrefixMask = %#x", got)
	}
	if KeepFields(FieldDstIP).IsZero() {
		t.Error("KeepFields empty")
	}
	ft := FatTreeTopology(4)
	if len(ft.Switches()) != 20 {
		t.Error("fat-tree wrong")
	}
	isp := ISPTopology()
	if isp.NumNodes() != 25 {
		t.Error("ISP wrong")
	}
	p, m2, err := PlaceResilient(ft, ft.EdgeSwitches(), 10, 5)
	if err != nil || m2 != 2 || len(p) == 0 {
		t.Errorf("PlaceResilient: %v %d %d", err, m2, len(p))
	}
}

func TestPublicSonataController(t *testing.T) {
	topo, _, _ := LinearTopology(1)
	net, err := NewNetwork(topo, NetworkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSonataController(net, 1)
	if out := s.UpdateQueries(topo.Switches()[0], 10000); out < 7*time.Second {
		t.Errorf("outage %v implausible", out)
	}
}
