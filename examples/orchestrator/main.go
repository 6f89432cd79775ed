// Intent-driven network-wide deployment: the orchestrator.
//
// Three 8-stage switch agents form a linear fabric. The operator states
// two prioritized intents — a port-scan detector (Q4, 11 stages) and a
// new-TCP-connection counter (Q1, 6 stages) — and the orchestrator does
// the rest: Q4 cannot fit one device, so resilient placement (§5.2)
// slices it into two partitions across s1 and s2; Q1 fits and deploys
// whole. Both pass per-switch budget admission before any agent is
// contacted, and the transactional deploy registers each query's
// expected telemetry contributors so merged epochs carry honest
// provenance.
//
// Then s2 is drained for maintenance. The replan diffs against the
// recorded deployment and produces a delta that touches only s2 — s1's
// installed programs are never reinstalled — and the provenance
// expectations follow automatically.
//
// Run with: go run ./examples/orchestrator
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/topology"
)

func main() {
	// --- Analyzer side: the merging telemetry service.
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	svcLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go svc.Serve(svcLn)

	// --- Switch side: one 8-stage agent per fabric switch, each pushing
	// telemetry to the analyzer.
	topo, _, _ := topology.Linear(3)
	names := []string{"s1", "s2", "s3"}
	clients := map[string]*rpc.Client{}
	engines := map[string]*modules.Engine{}
	budgets := map[string]scheduler.Budget{}
	for _, name := range names {
		layout, err := modules.NewLayout(modules.LayoutCompact, 8, 1<<14)
		if err != nil {
			log.Fatal(err)
		}
		eng := modules.NewEngine(layout)
		sw := dataplane.NewSwitch(name, 8, modules.StageCapacity())
		sw.Monitor = eng

		agent := rpc.NewAgent(sw, eng)
		exp, err := telemetry.Dial(svcLn.Addr().String(), telemetry.ExporterConfig{SwitchID: name})
		if err != nil {
			log.Fatal(err)
		}
		defer exp.Close()
		exp.AttachAgent(agent, eng) // epoch ticks push sketch snapshots

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go agent.Serve(ln)
		client, err := rpc.Dial(ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		clients[name] = client
		engines[name] = eng
		budgets[name] = scheduler.Budget{Stages: 8, ArraySize: 1 << 14, RulesPerModule: 256}
	}

	// --- Controller side: the remote deploy path plus the orchestrator
	// that plans against it.
	ctl := controller.NewRemote(clients, 1)
	ctl.AttachTelemetry(svc)
	orch, err := orchestrator.New(orchestrator.Config{Topo: topo, Budgets: budgets}, ctl)
	if err != nil {
		log.Fatal(err)
	}

	// Two intents, monitored at edge switch s1, highest priority first.
	orch.SetIntents([]orchestrator.Intent{
		{Query: query.Q4(3), Priority: 2, MinWidth: 256, MaxWidth: 1024, Edges: []string{"s1"}},
		{Query: query.Q1(3), Priority: 1, MinWidth: 256, MaxWidth: 1024, Edges: []string{"s1"}},
	})

	plan, diff, err := orch.Plan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan (%d stages per partition):\n%s\ndiff against the empty network:\n%s",
		plan.StagesPer, orchestrator.Summary(plan), diff)

	if err := orch.Apply(plan, diff); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninstalled per switch:")
	printInstalls(names, engines)

	// An epoch tick pushes every contributing switch's sketch snapshot;
	// the merged epoch is complete only when all expected contributors
	// (here: s1 and s2, the state-owning partition holders) arrived.
	qid := orch.QID("q4_port_scan")
	epoch := engines["s1"].Layout().Epoch()
	if err := ctl.Tick(); err != nil {
		log.Fatal(err)
	}
	missing, merged := waitEpochFull(svc, qid, epoch)
	fmt.Printf("\nepoch %d provenance for q4: merged %d contributors, missing %v\n", epoch, merged, missing)

	// --- Maintenance: drain s2 and converge on the delta.
	fmt.Println("\ndraining s2 and re-planning:")
	orch.Drain("s2")
	plan2, diff2, err := orch.Plan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s", diff2)
	if err := orch.Apply(plan2, diff2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninstalled per switch after the delta:")
	printInstalls(names, engines)

	// The expected-contributor set followed the drain: the next epoch is
	// already full with s1 alone.
	epoch2 := engines["s1"].Layout().Epoch()
	if err := ctl.Tick(); err != nil {
		log.Fatal(err)
	}
	missing, merged = waitEpochFull(svc, qid, epoch2)
	fmt.Printf("\nepoch %d provenance for q4: merged %d contributor, missing %v\n", epoch2, merged, missing)
}

// printInstalls lists what each engine actually holds.
func printInstalls(names []string, engines map[string]*modules.Engine) {
	for _, name := range names {
		fmt.Printf("  %-4s", name)
		for _, p := range engines[name].Programs() {
			fmt.Printf(" %s", p.Name)
		}
		fmt.Println()
	}
}

// waitEpochFull polls until the merged epoch has full provenance
// (snapshot push is asynchronous) or two seconds pass.
func waitEpochFull(svc *telemetry.Service, qid int, epoch uint32) (missing []string, merged int) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		partial, miss, m := svc.EpochStatus(qid, epoch)
		if !partial && m > 0 {
			return miss, m
		}
		if time.Now().After(deadline) {
			return miss, m
		}
		time.Sleep(2 * time.Millisecond)
	}
}
