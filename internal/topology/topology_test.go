package topology

import (
	"testing"
)

func TestLinear(t *testing.T) {
	topo, h1, h2 := Linear(3)
	if topo.NumNodes() != 5 {
		t.Fatalf("nodes = %d", topo.NumNodes())
	}
	p := topo.Path(h1, h2, 0)
	if len(p) != 5 {
		t.Fatalf("path = %v", p)
	}
	sw := topo.SwitchPath(p)
	if len(sw) != 3 {
		t.Errorf("switch path = %v", sw)
	}
	if len(topo.EdgeSwitches()) != 3 || len(topo.Hosts()) != 2 {
		t.Error("node classification wrong")
	}
}

func TestLinearPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Linear(0) should panic")
		}
	}()
	Linear(0)
}

func TestFatTreeGeometry(t *testing.T) {
	for _, k := range []int{4, 8} {
		topo := FatTree(k)
		wantSwitches := k*k/4 + k*k // (k/2)^2 core + k pods * (k/2 agg + k/2 edge)
		if got := len(topo.Switches()); got != wantSwitches {
			t.Errorf("k=%d: switches = %d, want %d", k, got, wantSwitches)
		}
		wantHosts := k * k * k / 4
		if got := len(topo.Hosts()); got != wantHosts {
			t.Errorf("k=%d: hosts = %d, want %d", k, got, wantHosts)
		}
		if got := len(topo.EdgeSwitches()); got != k*k/2 {
			t.Errorf("k=%d: edges = %d, want %d", k, got, k*k/2)
		}
	}
}

func TestFatTreePanicsOnOddArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd arity accepted")
		}
	}()
	FatTree(3)
}

func TestFatTreePathsCrossPods(t *testing.T) {
	topo := FatTree(4)
	hosts := topo.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1] // different pods
	p := topo.Path(src, dst, 7)
	if p == nil {
		t.Fatal("no path across pods")
	}
	// edge → agg → core → agg → edge = 5 switches, 7 nodes with hosts.
	if len(p) != 7 {
		t.Errorf("cross-pod path length %d, want 7: %v", len(p), p)
	}
	// Same-rack path stays at the edge switch.
	p2 := topo.Path(hosts[0], hosts[1], 7)
	if len(p2) != 3 {
		t.Errorf("same-rack path %v", p2)
	}
}

func TestECMPDeterministicAndSpreading(t *testing.T) {
	topo := FatTree(8)
	hosts := topo.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	a := topo.Path(src, dst, 123)
	b := topo.Path(src, dst, 123)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ECMP not deterministic for the same flow")
		}
	}
	// Different flows should spread over distinct paths eventually.
	distinct := map[string]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		p := topo.Path(src, dst, seed)
		key := ""
		for _, n := range p {
			key += topo.Node(n).Name + "/"
		}
		distinct[key] = true
	}
	if len(distinct) < 4 {
		t.Errorf("ECMP used only %d distinct paths over 64 flows", len(distinct))
	}
}

func TestLinkFailureReroutes(t *testing.T) {
	topo := FatTree(4)
	hosts := topo.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	orig := topo.Path(src, dst, 5)
	if orig == nil {
		t.Fatal("no initial path")
	}
	// Fail the first switch-switch link on the path.
	if !topo.SetLink(orig[1], orig[2], false) {
		t.Fatal("SetLink failed")
	}
	re := topo.Path(src, dst, 5)
	if re == nil {
		t.Fatal("no path after single link failure (fat-tree is redundant)")
	}
	for i := 0; i+1 < len(re); i++ {
		if (re[i] == orig[1] && re[i+1] == orig[2]) || (re[i] == orig[2] && re[i+1] == orig[1]) {
			t.Fatal("rerouted path still uses the failed link")
		}
	}
	// Recovery.
	topo.SetLink(orig[1], orig[2], true)
	if p := topo.Path(src, dst, 5); len(p) != len(orig) {
		t.Error("path did not recover after link restore")
	}
	if topo.SetLink(0, 0xFFFF, false) {
		t.Error("SetLink on nonexistent link reported success")
	}
}

func TestUnreachable(t *testing.T) {
	topo := New()
	a := topo.AddNode("a", Host)
	b := topo.AddNode("b", Host)
	if topo.Path(a, b, 0) != nil {
		t.Error("path between disconnected nodes")
	}
	if got := topo.Path(a, a, 0); len(got) != 1 {
		t.Error("self path should be the node itself")
	}
}

func TestISPBackbone(t *testing.T) {
	topo := ISPBackbone()
	if topo.NumNodes() != 25 {
		t.Fatalf("nodes = %d, want 25", topo.NumNodes())
	}
	// Connected: every city reaches every other.
	ids := topo.Switches()
	for _, dst := range ids {
		if p := topo.Path(ids[0], dst, 1); p == nil {
			t.Fatalf("backbone disconnected: %s unreachable", topo.Node(dst).Name)
		}
	}
	ca := topo.NodeByName("SanFrancisco")
	ny := topo.NodeByName("NewYork")
	if ca < 0 || ny < 0 {
		t.Fatal("city lookup failed")
	}
	p := topo.Path(ca, ny, 3)
	if len(p) < 2 || len(p) > 8 {
		t.Errorf("transcontinental path implausible: %v", len(p))
	}
	if topo.NodeByName("Atlantis") != -1 {
		t.Error("NodeByName invented a city")
	}
}

func TestSwitchNeighborsExcludeHosts(t *testing.T) {
	topo, h1, _ := Linear(2)
	s1 := 1 // first switch
	ns := topo.SwitchNeighbors(s1)
	for _, n := range ns {
		if topo.Node(n).Kind == Host {
			t.Fatal("host leaked into switch neighbors")
		}
	}
	if len(ns) != 1 {
		t.Errorf("s1 switch neighbors = %v", ns)
	}
	_ = h1
}

func TestKindStrings(t *testing.T) {
	if Host.String() != "host" || Core.String() != "core" {
		t.Error("kind names wrong")
	}
}

func TestAddLinkSelfPanics(t *testing.T) {
	topo := New()
	a := topo.AddNode("a", Host)
	defer func() {
		if recover() == nil {
			t.Error("self link accepted")
		}
	}()
	topo.AddLink(a, a)
}

func TestRandomTopology(t *testing.T) {
	topo := Random(12, 8, 1)
	if len(topo.Switches()) != 12 {
		t.Fatalf("switches = %d", len(topo.Switches()))
	}
	// Connected by construction (ring backbone).
	for _, dst := range topo.Switches() {
		if topo.Path(0, dst, 0) == nil {
			t.Fatalf("node %d unreachable", dst)
		}
	}
	// Deterministic per seed.
	a, b := Random(10, 6, 7), Random(10, 6, 7)
	for id := 0; id < 10; id++ {
		na, nb := a.Neighbors(id), b.Neighbors(id)
		if len(na) != len(nb) {
			t.Fatal("random topology not deterministic")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("tiny random graph should panic")
		}
	}()
	Random(2, 0, 0)
}

// TestVersionCountsChanges: every change to the graph moves Version, and
// nothing else does — what a caller computed at one version still holds
// while it reads the same value.
func TestVersionCountsChanges(t *testing.T) {
	topo := New()
	v := topo.Version()
	step := func(what string, changes bool, f func()) {
		t.Helper()
		f()
		if moved := topo.Version() != v; moved != changes {
			t.Errorf("%s: version moved = %v, want %v", what, moved, changes)
		}
		v = topo.Version()
	}
	var a, b int
	step("AddNode", true, func() { a = topo.AddNode("s1", Edge) })
	step("AddNode", true, func() { b = topo.AddNode("s2", Edge) })
	step("AddLink", true, func() { topo.AddLink(a, b) })
	step("SetLink down", true, func() { topo.SetLink(a, b, false) })
	step("SetLink down again", false, func() { topo.SetLink(b, a, false) })
	step("SetLink up", true, func() { topo.SetLink(b, a, true) })
	step("SetLink of no link", false, func() { topo.SetLink(a, a+b+1, false) })
	step("reads", false, func() { topo.Neighbors(a); topo.EdgeSwitches(); topo.Path(a, b, 1) })
}
