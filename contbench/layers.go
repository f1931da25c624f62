package main

import (
	"time"

	"myrtus/internal/continuum"
	"myrtus/internal/device"
	"myrtus/internal/mirto"
	"myrtus/internal/network"
	"myrtus/internal/sim"
	"myrtus/internal/telemetry"
	"myrtus/internal/trace"
)

// stackCounts snapshots the public Stats() of every serve-stack layer.
type stackCounts struct {
	sub          substrate
	admitted     int64
	shed         int64
	opens, fasts int64
	health       mirto.HealthStats
	state        mirto.StateStoreStats
	ckpt         mirto.CheckpointStats
	fence        mirto.FenceStats
	iters        int
	latObs       float64
	hbWrites     int64
}

func snapStack(s *stack) stackCounts {
	out := stackCounts{sub: snapSubstrate(s.c)}
	for _, p := range s.ac.Stats() {
		out.admitted += p.Admitted
		out.shed += p.Shed()
	}
	out.opens, out.fasts = s.br.Stats()
	out.health = s.hm.Stats()
	out.state = s.ss.Stats()
	out.ckpt = s.cp.Stats()
	out.fence = s.fl.Stats()
	out.iters, _, _ = s.loop.Stats()
	out.hbWrites = s.hbWrites
	if reg, ok := s.o.R.Metrics(s.app); ok {
		out.latObs = histCount(reg, "latency_ms")
	}
	return out
}

// setStackCounts records the count-type per-layer metrics of one round
// (the difference of two snapshots) that served reqs requests over
// ticks sensing ticks.
func (r *run) setStackCounts(b, a stackCounts, reqs, ticks float64) {
	r.setSubstrate(a.sub.delta(b.sub), reqs, ticks)
	r.set("mapek.iterations", float64(a.iters-b.iters))
	admitted, shed := float64(a.admitted-b.admitted), float64(a.shed-b.shed)
	r.set("admission.admitted", admitted)
	r.set("admission.shed_ratio", ratio(shed, admitted+shed))
	r.set("breaker.opens", float64(a.opens-b.opens))
	r.set("breaker.fast_fails", float64(a.fasts-b.fasts))
	r.set("health.dispatches", float64(a.health.Dispatches-b.health.Dispatches))
	r.set("health.hedges_fired", float64(a.health.HedgesFired-b.health.HedgesFired))
	r.set("state.applied", float64(a.state.Applied-b.state.Applied))
	r.set("state.dedup_hits", float64(a.state.DedupHits-b.state.DedupHits))
	r.set("checkpoint.fulls", float64(a.ckpt.Fulls-b.ckpt.Fulls))
	r.set("checkpoint.deltas", float64(a.ckpt.Deltas-b.ckpt.Deltas))
	r.set("checkpoint.bytes", float64(a.ckpt.BytesSent-b.ckpt.BytesSent))
	r.set("fence.tokens_minted", float64(a.fence.TokensMinted-b.fence.TokensMinted))
	r.set("fence.epoch_rejects", float64(a.fence.PlanEpochRejects-b.fence.PlanEpochRejects))
}

// unitCosts times the hot-path public calls of the serve path in
// isolation, keyed by ledger item name. Calls that depend on the system
// (a fabric hop between src and dst, a KB write, health scoring) run
// against c; the rest get fresh instances. KB writes go to a few scratch
// keys, so the store keeps the size the workload gave it.
func unitCosts(c *continuum.Continuum, src, dst string) map[string]float64 {
	eng := sim.NewEngine(1)
	out := map[string]float64{}

	ac := mirto.NewAdmissionController(eng, mirto.AdmissionConfig{Rate: 1e15, Burst: 1e15})
	out["admission.admit"] = perCall(func(int) { ac.Admit(mirto.PriorityMedium, 0) }) //nolint:errcheck // the bucket never empties

	bs := mirto.NewBreakerSet(eng, mirto.BreakerConfig{})
	out["breaker.allow_success"] = perCall(func(int) {
		bs.Allow("dev")
		bs.Success("dev")
	})

	hm := mirto.NewHealthMonitor(c, mirto.HealthConfig{})
	hdev := c.Devices[src]
	out["health.dispatch_observe"] = perCall(func(i int) {
		hm.NoteDispatch(src)
		at := sim.Time(i) * sim.Millisecond
		hm.Observe(hdev, 1, at, at+sim.Millisecond)
	})

	ss := mirto.NewStateStore(0)
	ss.SetFencing(true)
	out["state.apply_fenced"] = perCall(func(i int) { ss.ApplyFenced("app", "stage", "dev", uint64(i+1), 1, sim.Time(i), 1) })

	out["fabric.send_drain"] = perCall(func(int) {
		c.Fabric.SendCtx(trace.SpanContext{}, src, dst, 100_000, network.Options{Retries: 3}, nil) //nolint:errcheck // route exists
		c.Engine.Run()
	})

	dev := device.NewMulticore("ledger-dev")
	work := device.Work{Name: "ledger", GOps: 1}
	out["device.run"] = perCall(func(i int) { dev.Run(work, sim.Time(i)*sim.Second) }) //nolint:errcheck // idle device

	tr := trace.NewTracer(eng)
	out["trace.root_span"] = perCall(func(int) {
		root := tr.StartRoot("request/ledger", trace.LayerAgent)
		root.SetAttr("ingress", src)
		root.SetAttr("tenant", "default")
		root.EndNow()
	})

	h := telemetry.NewHistogram(4096)
	out["telemetry.observe"] = perCall(func(i int) { h.Observe(float64(i % 500)) })

	val := make([]byte, 200)
	out["kb.put"] = perCall(func(i int) { c.KB.Put(ledgerKey(i), val) })
	return out
}

// setUnitCosts records the isolated unit costs as per-layer metrics.
func (r *run) setUnitCosts(u map[string]float64) {
	r.set("admission.admit_ns", u["admission.admit"])
	r.set("state.apply_ns", u["state.apply_fenced"])
	r.set("fabric.send_ns", u["fabric.send_drain"])
	r.set("device.run_ns", u["device.run"])
	r.set("kb.put_us", u["kb.put"]/1e3)
}

// serveLedger pairs the serve stack's unit costs with the calls one
// measured round made (the difference of the before/after snapshots).
// The round's own KB writes and sensing calls are timed on s after it.
func serveLedger(s *stack, b, a stackCounts) []ledgerItem {
	d := a.sub.delta(b.sub)
	// One hop of the app's own pipeline: camera's device to detector's.
	plan, _ := s.o.PlanFor(s.app)
	cam, _ := plan.Assignment("camera")
	det, _ := plan.Assignment("detector")
	u := unitCosts(s.c, cam.Device, det.Device)
	// One MAPE-K pass per sensing tick; KPIs is its monitor's read.
	ticks := float64(a.iters - b.iters)
	kpis := perCall(func(int) { s.o.R.KPIs(s.app) })
	iterate := perCall(func(int) { s.loop.Iterate() })
	heartbeat := perCall(func(int) { s.c.Heartbeat() })
	detector := perCall(func(int) { s.fd.Tick() })
	healthTick := perCall(func(int) { s.hm.Tick(s.c.Engine.Now()) })
	ckptTick := perCall(func(int) { s.cp.Tick() })
	// The engine's dispatch of the round's other events (arrivals, device
	// completions, sensing ticks): one no-op event scheduled and fired per
	// call. The fabric row already covers its hops' events, counted here
	// on one probe hop.
	eng := s.c.Engine
	event := perCall(func(int) {
		eng.At(eng.Now(), func() {})
		eng.Run()
	})
	fired := eng.Fired()
	s.c.Fabric.SendCtx(trace.SpanContext{}, cam.Device, det.Device, 100_000, network.Options{Retries: 3}, nil) //nolint:errcheck // route exists
	eng.Run()
	perHop := float64(eng.Fired() - fired)
	return []ledgerItem{
		{name: "admission.admit", unitNs: u["admission.admit"], calls: float64(a.admitted + a.shed - b.admitted - b.shed)},
		{name: "breaker.allow_success", unitNs: u["breaker.allow_success"], calls: d.deviceRuns + d.sends()},
		{name: "health.dispatch_observe", unitNs: u["health.dispatch_observe"], calls: float64(a.health.Dispatches - b.health.Dispatches)},
		{name: "state.apply_fenced", unitNs: u["state.apply_fenced"], calls: float64(a.state.Applied + a.state.DedupHits - b.state.Applied - b.state.DedupHits)},
		{name: "fabric.send_drain", unitNs: u["fabric.send_drain"], calls: d.sends()},
		{name: "device.run", unitNs: u["device.run"], calls: d.deviceRuns},
		{name: "trace.root_span", unitNs: u["trace.root_span"], calls: 0}, // sampling is off in the measured round
		{name: "telemetry.observe", unitNs: u["telemetry.observe"], calls: a.latObs - b.latObs + d.deviceRuns},
		{name: "kb.put", unitNs: u["kb.put"], calls: float64(d.kbWrites - (a.hbWrites - b.hbWrites))},
		{name: "mapek.iterate", unitNs: iterate, calls: ticks},
		{name: "telemetry.kpis", unitNs: kpis, calls: ticks, within: "mapek.iterate"},
		{name: "continuum.heartbeat", unitNs: heartbeat, calls: ticks},
		{name: "mirto.detector_tick", unitNs: detector, calls: ticks},
		{name: "health.tick", unitNs: healthTick, calls: ticks},
		{name: "checkpoint.tick", unitNs: ckptTick, calls: ticks},
		{name: "sim.event", unitNs: event, calls: max(0, float64(d.events)-perHop*d.sends())},
	}
}

// ledgerKey spreads ledger KB writes over a few scratch keys, so timing
// Put does not grow the store it measures.
func ledgerKey(i int) string {
	const keys = "0123456789abcdef"
	return "/bench/ledger/" + string(keys[i%16])
}

// setServeLedger records the ledger and the unit costs it measured.
func (r *run) setServeLedger(items []ledgerItem, measured time.Duration) {
	u := map[string]float64{}
	for _, it := range items {
		u[it.name] = it.unitNs
	}
	r.setUnitCosts(u)
	r.set("telemetry.kpis_us", u["telemetry.kpis"]/1e3)
	r.setLedger(items, measured)
}
