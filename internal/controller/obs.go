package controller

import (
	"sync"
	"sync/atomic"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/obs"
)

// ctlObs is the controller's observability state: control-plane
// operation outcome counters plus per-query resource gauge publication.
// The zero value counts silently; RegisterObs makes it visible.
type ctlObs struct {
	deploys            uint64
	deployFailures     uint64
	rollbacks          uint64
	rollbackFailures   uint64
	removes            uint64
	removeFailures     uint64
	updates            uint64
	resizes            uint64
	resizeFailures     uint64
	reconverges        uint64
	reconvergeFailures uint64
	ticks              uint64
	tickFailures       uint64
	deferredRemoves    uint64
	flushedRemoves     uint64

	mu        sync.Mutex
	reg       *obs.Registry
	published map[int]pubInfo // qid -> labels used at publish time
}

// pubInfo remembers how a query's gauges were labeled, so Remove can
// drop exactly those series.
type pubInfo struct{ name, mode string }

// registerCtl exposes the outcome counters in reg and enables per-query
// gauge publication. Families follow newton_ctl_<op>s_total{result}.
func (o *ctlObs) registerCtl(reg *obs.Registry) {
	o.mu.Lock()
	o.reg = reg
	o.mu.Unlock()
	load := func(p *uint64) func() uint64 {
		return func() uint64 { return atomic.LoadUint64(p) }
	}
	for _, c := range []struct {
		name, help string
		ok, fail   *uint64 // fail nil: the family has no result label
	}{
		{"newton_ctl_deploys_total", "Query deploys by outcome.", &o.deploys, &o.deployFailures},
		{"newton_ctl_rollbacks_total", "Per-switch rollback steps of failed changes, by outcome.", &o.rollbacks, &o.rollbackFailures},
		{"newton_ctl_removes_total", "Query removals by outcome.", &o.removes, &o.removeFailures},
		{"newton_ctl_placement_updates_total", "Assignment changes to a deployed query that committed.", &o.updates, nil},
		{"newton_ctl_resizes_total", "Width resizes by outcome.", &o.resizes, &o.resizeFailures},
		{"newton_ctl_reconverges_total", "Reconverge passes by outcome.", &o.reconverges, &o.reconvergeFailures},
		{"newton_ctl_ticks_total", "Epoch ticks by outcome.", &o.ticks, &o.tickFailures},
		{"newton_ctl_deferred_removes_total", "Removes deferred because the target switch was offline.", &o.deferredRemoves, nil},
		{"newton_ctl_flushed_removes_total", "Deferred removes flushed when their switch came back online.", &o.flushedRemoves, nil},
	} {
		if c.fail == nil {
			reg.CounterFunc(c.name, c.help, load(c.ok))
			continue
		}
		reg.CounterFunc(c.name, c.help, load(c.ok), obs.L("result", "ok"))
		reg.CounterFunc(c.name, c.help, load(c.fail), obs.L("result", "error"))
	}
}

func inc(p *uint64) { atomic.AddUint64(p, 1) }

// publish sets the per-query resource gauges for a successfully
// deployed query, labeled {mode, qid, query}. No-op until registerCtl.
func (o *ctlObs) publish(qid int, name, mode string, f modules.Footprint) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.reg == nil {
		return
	}
	if o.published == nil {
		o.published = map[int]pubInfo{}
	}
	o.published[qid] = pubInfo{name: name, mode: mode}
	modules.PublishQueryFootprint(o.reg, qid, name, f, obs.L("mode", mode))
}

// unpublish drops a removed query's gauges. No-op when never published.
func (o *ctlObs) unpublish(qid int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.reg == nil {
		return
	}
	info, ok := o.published[qid]
	if !ok {
		return
	}
	delete(o.published, qid)
	modules.RemoveQueryFootprint(o.reg, qid, info.name, obs.L("mode", info.mode))
}

// RegisterObs exposes the controller's deploy/rollback/reconverge
// outcome counters in reg and turns on per-query resource gauge
// publication for subsequent deploys.
func (r *Remote) RegisterObs(reg *obs.Registry) { r.obs.registerCtl(reg) }

// RegisterObs is the same over the simulated network's controller —
// what newton-ctl serves behind -obs-addr.
func (c *Newton) RegisterObs(reg *obs.Registry) { c.r.RegisterObs(reg) }
