package main

import (
	"myrtus/internal/continuum"
	"myrtus/internal/kb"
	"myrtus/internal/network"
	"myrtus/internal/telemetry"
	"myrtus/internal/trace"
)

// substrate is a snapshot of the counters every continuum exposes: engine
// events fired, KB writes and Raft messages, fabric outcomes and device
// runs. Two snapshots bracket a round; their difference is what the
// round did in each layer below the control plane.
type substrate struct {
	events     uint64
	kbWrites   int64
	kbMsgs     uint64
	fabric     network.FabricStats
	deviceRuns float64
}

func snapSubstrate(c *continuum.Continuum) substrate {
	s := substrate{events: c.Engine.Fired(), kbWrites: c.KB.Revision(), fabric: c.Fabric.Stats()}
	if kc, ok := c.KB.(*kb.Cluster); ok {
		s.kbMsgs, _ = kc.Stats()
	}
	for _, name := range c.DeviceNames() {
		if v, ok := c.Devices[name].Metrics().Find("work_completed"); ok {
			s.deviceRuns += v.Value
		}
	}
	return s
}

// delta is what happened between two snapshots.
func (s substrate) delta(before substrate) substrate {
	return substrate{
		events:   s.events - before.events,
		kbWrites: s.kbWrites - before.kbWrites,
		kbMsgs:   s.kbMsgs - before.kbMsgs,
		fabric: network.FabricStats{
			Delivered:  s.fabric.Delivered - before.fabric.Delivered,
			Lost:       s.fabric.Lost - before.fabric.Lost,
			Retries:    s.fabric.Retries - before.fabric.Retries,
			QueueDrops: s.fabric.QueueDrops - before.fabric.QueueDrops,
		},
		deviceRuns: s.deviceRuns - before.deviceRuns,
	}
}

func (s substrate) sends() float64 { return float64(s.fabric.Delivered + s.fabric.Lost) }

// setSubstrate records the substrate per-layer metrics of one round that
// served reqs requests and ran ticks sensing ticks.
func (r *run) setSubstrate(d substrate, reqs, ticks float64) {
	r.set("sim.events_per_req", ratio(float64(d.events), reqs))
	r.set("kb.msgs_per_write", ratio(float64(d.kbMsgs), float64(d.kbWrites)))
	r.set("kb.writes_per_tick", ratio(float64(d.kbWrites), ticks))
	r.set("fabric.sends_per_req", ratio(d.sends(), reqs))
	r.set("fabric.retries", float64(d.fabric.Retries))
	r.set("fabric.queue_drops", float64(d.fabric.QueueDrops))
	r.set("device.runs_per_req", ratio(d.deviceRuns, reqs))
}

// setTraceShares records the program tracer's view of a traced round:
// spans per request and each layer's share of critical-path time.
func (r *run) setTraceShares(traces []*trace.Trace, reqs float64) {
	sum := trace.Summarize(traces)
	r.set("trace.spans_per_req", ratio(float64(sum.Spans), reqs))
	shares := map[trace.Layer]float64{}
	for _, ls := range sum.Layers {
		shares[ls.Layer] = ls.Share
	}
	r.set("trace.share.device", shares[trace.LayerDevice])
	r.set("trace.share.network", shares[trace.LayerNetwork])
	r.set("trace.share.agent", shares[trace.LayerAgent])
}

// histCount is the observation count of a registry histogram (0 if absent).
func histCount(reg *telemetry.Registry, name string) float64 {
	if reg == nil {
		return 0
	}
	if s, ok := reg.Find(name); ok {
		return float64(s.Hist.Count)
	}
	return 0
}
