package controller

import (
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
)

// compileAt compiles q as a deployment at qid, width and key shard
// (shards 0 = unsharded), sliced at stagesPer when it is positive: the
// programs a switch installed when each switch compiled its own share.
func compileAt(t *testing.T, q *query.Query, qid int, width uint32, shard, shards uint32, stagesPer int) []*modules.Program {
	t.Helper()
	o := compiler.AllOpts()
	o.QID, o.Width, o.ShardIndex, o.ShardCount = qid, width, shard, shards
	p, err := compiler.Compile(q, o)
	if err != nil {
		t.Fatal(err)
	}
	if stagesPer <= 0 {
		return []*modules.Program{p}
	}
	parts, err := modules.SliceProgram(p, stagesPer)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// synBurst sends n SYNs to one destination through sw.
func synBurst(sw *dataplane.Switch, n int) {
	for i := 0; i < n; i++ {
		sw.Process(&packet.Packet{
			TS: uint64(i), IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 42},
			TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
		})
	}
}

// bankSum adds up every register of every bank sw's engine holds.
func bankSum(sw *dataplane.Switch) (n uint64) {
	for _, b := range engineOf(sw).SnapshotBanks() {
		for _, v := range b.Values {
			n += uint64(v)
		}
	}
	return n
}

// TestAgentsDoNotSharePrograms: one Want hands the same program to three
// switches, and each engine binds registers of its own. Packets through
// one switch count there and nowhere else — before and after an agent
// restart that Reconverge repairs.
func TestAgentsDoNotSharePrograms(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			r, sws := fx.build(t, 3)
			q := query.Q1(3)
			w := Want{Query: q, Width: 1 << 10, Programs: compileAt(t, q, 0, 1<<10, 0, 0, 0)}
			qid, _, err := r.Deploy(0, w)
			if err != nil {
				t.Fatal(err)
			}
			synBurst(sws[0], 10)
			if a, b, c := bankSum(sws[0]), bankSum(sws[1]), bankSum(sws[2]); a == 0 || b != 0 || c != 0 {
				t.Fatalf("after packets through a: banks sum to %d, %d, %d, want a alone nonzero", a, b, c)
			}

			restart(t, r, sws[1])
			if err := r.Reconverge(); err != nil {
				t.Fatalf("Reconverge: %v", err)
			}
			for _, sw := range sws {
				if got := held(engineOf(sw)); fmt.Sprint(got) != fmt.Sprintf("[%d/0]", qid) {
					t.Fatalf("after reconverge %s holds %v", sw.ID, got)
				}
			}
			before := bankSum(sws[0])
			synBurst(sws[1], 10)
			if a, b, c := bankSum(sws[0]), bankSum(sws[1]), bankSum(sws[2]); a != before || b == 0 || c != 0 {
				t.Fatalf("after packets through b: banks sum to %d, %d, %d, want %d, nonzero, 0", a, b, c, before)
			}
		})
	}
}

// restart gives sw's agent a fresh engine, as an agent restart does: its
// installs are gone while the controller's records still list them.
func restart(t *testing.T, r *Remote, sw *dataplane.Switch) {
	t.Helper()
	_, eng := bareSwitch(t, sw.ID)
	sw.Monitor = eng
	switch a := r.agents[sw.ID].(type) {
	case *rpc.Client:
		a.Close()
		server, client := net.Pipe()
		go rpc.NewAgent(sw, eng).HandleConn(server)
		c := rpc.NewClient(client)
		t.Cleanup(func() { c.Close() })
		r.agents[sw.ID] = c
	case *fakeAgent:
		a.node.Eng = eng
	}
}

// TestDeployRefusesChangedQuery: a qid runs one query. A Want naming a
// different one under a live qid is refused, touching no switch, where
// it used to be dropped in favour of the query already deployed.
func TestDeployRefusesChangedQuery(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			r, sws := fx.build(t, 2)
			qid, _, err := r.Deploy(0, Want{Query: query.Q1(3), Width: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			keep := engineOf(sws[0]).Programs()[0]
			if _, _, err := r.Deploy(qid, Want{Query: query.Q1(50), Width: 1 << 9}); err == nil {
				t.Fatal("Deploy of a changed query under a live qid succeeded")
			}
			if ps := engineOf(sws[0]).Programs(); len(ps) != 1 || ps[0] != keep || r.want[qid].Width != 1<<10 {
				t.Fatal("the refused Deploy changed the deployment")
			}
			// The same query, rebuilt, is the same deployment.
			if got, _, err := r.Deploy(qid, Want{Query: query.Q1(3), Width: 1 << 9}); err != nil || got != qid {
				t.Fatalf("Deploy(%d) of an Equal query = %d, %v", qid, got, err)
			}
		})
	}
}

// TestInstalledProgramsMatchCompile is the equivalence oracle of the
// controller's one compile site: for every catalog query, replicated
// (with and without Programs), sharded, and placed at every partition
// size SliceProgram accepts (with and without Programs), each switch
// holds exactly what compiling the query at that qid, width and shard,
// sliced at StagesPer, produces — the programs the controller installed
// when it compiled each switch's share on its own.
func TestInstalledProgramsMatchCompile(t *testing.T) {
	const width = 1 << 10
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			r, sws := fx.build(t, 3)
			for _, q := range query.All() {
				whole := compileAt(t, q, 0, width, 0, 0, 0)
				check := func(what string, w Want, want func(i int, qid int) []*modules.Program) {
					t.Helper()
					qid, _, err := r.Deploy(0, w)
					if err != nil {
						t.Fatalf("%s %s: %v", q.Name, what, err)
					}
					for i, sw := range sws {
						got, _ := json.Marshal(engineOf(sw).Programs())
						exp, _ := json.Marshal(want(i, qid))
						if string(got) != string(exp) {
							t.Fatalf("%s %s: switch %s holds\n%s\nwant\n%s", q.Name, what, sw.ID, got, exp)
						}
					}
					if err := r.Remove(qid); err != nil {
						t.Fatal(err)
					}
				}

				replicate := func(_, qid int) []*modules.Program { return compileAt(t, q, qid, width, 0, 0, 0) }
				check("replicated", Want{Query: q, Width: width}, replicate)
				check("replicated with programs", Want{Query: q, Width: width, Programs: whole}, replicate)
				check("sharded", Want{Query: q, Width: width, Sharded: true}, func(i, qid int) []*modules.Program {
					return compileAt(t, q, qid, width, uint32(i), uint32(len(sws)), 0)
				})

				// A partition after the first carries two continuation
				// stages, and a switch has 16.
				sizes := 0
				for sp := 1; sp <= min(whole[0].NumStages(), 14); sp++ {
					parts, err := modules.SliceProgram(whole[0], sp)
					if err != nil {
						continue // a cross-branch read split from its bank
					}
					sizes++
					assign := map[string][]int{}
					for k := range parts {
						assign[sws[k%len(sws)].ID] = append(assign[sws[k%len(sws)].ID], k)
					}
					placed := func(i, qid int) []*modules.Program {
						all := compileAt(t, q, qid, width, 0, 0, sp)
						out := []*modules.Program{}
						for _, k := range assign[sws[i].ID] {
							out = append(out, all[k])
						}
						return out
					}
					what := fmt.Sprintf("placed at %d stages", sp)
					check(what, Want{Query: q, Width: width, StagesPer: sp, Parts: assign}, placed)
					check(what+" with programs", Want{Query: q, Width: width, StagesPer: sp, Parts: assign, Programs: parts}, placed)
				}
				if sizes < 2 {
					t.Fatalf("%s (%d stages) placed at %d partition sizes, want several", q.Name, whole[0].NumStages(), sizes)
				}
			}
		})
	}
}

// TestDeployChecksPrograms: supplied programs must match the Want's
// shape, and the controller never writes to them.
func TestDeployChecksPrograms(t *testing.T) {
	r, _ := fakeFixture(t, 2)
	q := query.Q4(3)
	whole := compileAt(t, q, 0, 1<<10, 0, 0, 0)
	parts := compileAt(t, q, 0, 1<<10, 0, 0, 6)
	for _, w := range []Want{
		{Query: q, Width: 1 << 10, Programs: slices.Concat(whole, whole)},
		{Query: q, Width: 1 << 10, Sharded: true, Programs: whole},
		{Query: q, Width: 1 << 10, StagesPer: 6, Parts: map[string][]int{"a": {0}, "b": {len(parts)}}, Programs: parts},
	} {
		if _, _, err := r.Deploy(0, w); err == nil {
			t.Errorf("Deploy accepted %d programs for a want of mode sharded=%v stagesPer=%d", len(w.Programs), w.Sharded, w.StagesPer)
		}
	}
	before, _ := json.Marshal(parts)
	if _, _, err := r.Deploy(0, Want{Query: q, Width: 1 << 10, StagesPer: 6, Parts: map[string][]int{"a": {0}, "b": {1}}, Programs: parts}); err != nil {
		t.Fatal(err)
	}
	if after, _ := json.Marshal(parts); string(after) != string(before) || parts[0].QID != 0 {
		t.Error("the controller wrote to the programs it was handed")
	}
}

// recordingAgent answers every call and keeps nothing: what is left to
// count is the controller's own work.
type recordingAgent struct{ installs int }

func (a *recordingAgent) Install(*modules.Program) error            { a.installs++; return nil }
func (a *recordingAgent) Remove(int) error                          { return nil }
func (a *recordingAgent) NextEpoch() error                          { return nil }
func (a *recordingAgent) DrainReports() ([]dataplane.Report, error) { return nil, nil }

// TestResizeWithProgramsAllocs: a resize handed its programs compiles
// nothing, so it allocates far less than the one compile each switch
// used to pay for.
func TestResizeWithProgramsAllocs(t *testing.T) {
	agents := map[string]agent{}
	recs := map[string]*recordingAgent{}
	for _, n := range []string{"a", "b", "c", "d"} {
		recs[n] = &recordingAgent{}
		agents[n] = recs[n]
	}
	r := newRemote(agents, 1)
	q := query.Q7(3)
	wide, narrow := compileAt(t, q, 0, 1<<10, 0, 0, 0), compileAt(t, q, 0, 1<<9, 0, 0, 0)
	qid, _, err := r.Deploy(0, Want{Query: q, Width: 1 << 10, Programs: wide})
	if err != nil {
		t.Fatal(err)
	}
	flip := false
	resize := func() {
		w := Want{Query: q, Width: 1 << 10, Programs: wide}
		if flip = !flip; flip {
			w.Width, w.Programs = 1<<9, narrow
		}
		if _, _, err := r.Deploy(qid, w); err != nil {
			t.Fatal(err)
		}
	}
	deploy := testing.AllocsPerRun(50, resize)
	compile := testing.AllocsPerRun(10, func() { compileAt(t, q, qid, 1<<10, 0, 0, 0) })
	if recs["a"].installs < 50 {
		t.Fatalf("agent a saw %d installs, want one a resize", recs["a"].installs)
	}
	if deploy > compile/2 {
		t.Fatalf("a resize over four switches allocates %v times, one compile of %s %v: want at most half", deploy, q.Name, compile)
	}
	t.Logf("%v allocations a resize over four switches; one compile of %s: %v", deploy, q.Name, compile)
}
