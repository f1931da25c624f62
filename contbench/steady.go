package main

import (
	"fmt"
	"runtime"
	"time"

	"myrtus/internal/chaos"
	"myrtus/internal/continuum"
	"myrtus/internal/mapek"
	"myrtus/internal/mirto"
	"myrtus/internal/sim"
	"myrtus/internal/tosca"
)

// serve-steady generator parameters. 40 req/s sits well under the
// default continuum's 60–75 req/s capacity for StatefulApp, so nothing
// sheds while the serve path, the MAPE-K loop and checkpointing all work.
const (
	steadyRate    = 40.0 // Poisson arrivals per virtual second
	steadyIngress = "edge-rv-0"
	steadyItems   = 1
	steadyRound   = 60 * sim.Second // virtual length of one round

	senseEvery = 250 * sim.Millisecond
	ckptAnchor = "cloud-srv-0"
)

// steadyRounds: two 60 s warm-up rounds fill the 4096-sample KPI
// histograms (40 req/s × 120 s); a timed round then takes ~1.7 s.
var steadyRounds = rounds{warmup: 2, perSecond: 0.45, min: 3}

// stack is a continuum with the whole self-healing serve stack wired
// through public setters, serving one deployed app.
type stack struct {
	c    *continuum.Continuum
	o    *mirto.Orchestrator
	app  string
	fl   *mirto.FenceLedger
	ss   *mirto.StateStore
	cp   *mirto.Checkpointer
	br   *mirto.BreakerSet
	fd   *mirto.FailureDetector
	hm   *mirto.HealthMonitor
	ac   *mirto.AdmissionController
	loop *mapek.Loop
	// hbWrites counts the KB writes heartbeats made, so the ledger can
	// tell them from the checkpointer's.
	hbWrites int64
}

// buildStack builds the default continuum (11 devices, 3-replica KB),
// wires fencing, state, checkpoints, admission, breakers, failure
// detection, health scoring and the MAPE-K loop, and deploys
// chaos.StatefulApp. Tracing starts off.
func buildStack(seed uint64) (*stack, error) {
	opts := continuum.DefaultOptions()
	opts.Seed = seed
	c, err := continuum.Build(opts)
	if err != nil {
		return nil, err
	}
	c.Tracer.SetSampleEvery(0)
	m := mirto.NewManager(c, mirto.LatencyGoal())
	o := mirto.NewOrchestrator(m)
	s := &stack{c: c, o: o}
	// Fencing before Deploy: the first plan is already epoch-stamped.
	s.fl = mirto.NewFenceLedger(c.KB)
	m.SetFence(s.fl)
	o.R.SetFence(s.fl)
	s.ss = mirto.NewStateStore(0)
	s.ss.SetFencing(true)
	o.R.SetStateStore(s.ss)
	s.cp = mirto.NewCheckpointer(o.R, c.KB, ckptAnchor, 0)
	s.cp.SetFence(s.fl)
	o.CP = s.cp
	// Rate well above the offered load and a sojourn target above the
	// serve path's queueing at that load: the gate is on the path but
	// never sheds.
	s.ac = mirto.NewAdmissionController(c.Engine, mirto.AdmissionConfig{
		Rate: 4 * steadyRate, Target: sim.Second})
	o.R.SetAdmission(s.ac)
	st, err := tosca.Parse(chaos.StatefulApp)
	if err != nil {
		return nil, err
	}
	plan, err := o.Deploy(st)
	if err != nil {
		return nil, err
	}
	s.app = plan.App
	if s.loop, err = o.AttachLoop(s.app, mirto.SLO{P95LatencyMs: 250, MaxFailureRate: 0.05}); err != nil {
		return nil, err
	}
	s.br = mirto.NewBreakerSet(c.Engine, mirto.BreakerConfig{})
	o.R.SetBreakers(s.br)
	s.fd = mirto.NewFailureDetector(c, 2)
	s.fd.SetBreakers(s.br)
	s.fd.SetStateStore(s.ss)
	s.fd.SetFence(s.fl)
	s.hm = mirto.NewHealthMonitor(c, mirto.HealthConfig{})
	s.hm.SetDetector(s.fd)
	m.SetHealth(s.hm)
	o.R.SetHealth(s.hm)
	return s, nil
}

// sense is one sensing tick of the serve stack, each component in its
// own benchmark span.
func (s *stack) sense(sp *spanLog) {
	id := sp.begin("continuum.heartbeat")
	rev := s.c.KB.Revision()
	s.c.Heartbeat()
	s.hbWrites += s.c.KB.Revision() - rev
	sp.end(id)
	id = sp.begin("mirto.detector_tick")
	s.fd.Tick()
	sp.end(id)
	id = sp.begin("health.tick")
	s.hm.Tick(s.c.Engine.Now())
	sp.end(id)
	id = sp.begin("mapek.iterate")
	s.loop.Iterate()
	sp.end(id)
	id = sp.begin("checkpoint.tick")
	s.cp.Tick()
	sp.end(id)
}

// serveOutcome collects one round's request outcomes.
type serveOutcome struct {
	submitted, completed int64
	lat                  []float64 // virtual ms, due time to completion
}

// round runs round i on the stack: Poisson arrivals at steadyRate
// from the seed's round-i stream plus a sensing tick every 250 ms, then
// drains every in-flight request. A round starts where the previous one
// drained, so rounds continue one long-lived system.
func (s *stack) round(seed uint64, i int, length sim.Time, sp *spanLog) *serveOutcome {
	eng := s.c.Engine
	out := &serveOutcome{}
	rng := sim.NewRNG(seed).Fork(fmt.Sprintf("serve-steady/round-%d", i))
	t0 := eng.Now()
	end := t0 + length
	for _, due := range arrivals(rng, t0, length, steadyRate) {
		eng.At(due, func() {
			out.submitted++
			id := sp.begin("mirto.submit")
			// A request that errors, now or in its callback, never completes.
			s.o.R.SubmitFrom(s.app, steadyIngress, steadyItems, func(_ sim.Time, _ float64, err error) { //nolint:errcheck // counted as not completed
				if err != nil {
					return
				}
				out.completed++
				out.lat = append(out.lat, float64(eng.Now()-due)/float64(sim.Millisecond))
			})
			sp.end(id)
		})
	}
	for at := t0 + senseEvery; at <= end; at += senseEvery {
		eng.At(at, func() { s.sense(sp) })
	}
	id := sp.begin("sim.run")
	eng.RunUntil(end)
	eng.Run()
	sp.end(id)
	return out
}

func runSteady(r *run) error {
	seed := r.opts.seed
	length := sim.Time(float64(steadyRound) * r.opts.scale)
	s, err := setups(r, func() (*stack, error) { return buildStack(seed) })
	if err != nil {
		return err
	}
	if r.opts.trace {
		return traceSteady(r, s, length)
	}
	var first *serveOutcome
	err = r.timedRounds(steadyRounds, nil, func(i int) (int64, error) {
		out := s.round(seed, i, length, nil)
		if i == steadyRounds.warmup {
			first = out
		}
		r.attempted += out.submitted
		r.failed += out.submitted - out.completed
		return out.submitted, nil
	}, func() { r.liveHeap(s) })
	if err != nil {
		return err
	}
	r.check("every-request-completes", r.failed == 0,
		"%d of %d requests failed or never completed", r.failed, r.attempted)
	r.setServeLatency(first)
	return nil
}

// setServeLatency records the latency view of one round's requests: the
// first timed round in the end-to-end run, round 0 in the traced run.
func (r *run) setServeLatency(out *serveOutcome) {
	r.set("lat_p50_ms", quantile(out.lat, 0.50))
	r.set("lat_p99_ms", quantile(out.lat, 0.99))
	r.set("e2e.fail_ratio", ratio(float64(out.submitted-out.completed), float64(out.submitted)))
}

// traceSteady is the traced run. Round 0 runs twice from the same seed:
// untraced on the set-up stack (the reference for counts and for the
// tracing overhead), and on a fresh stack whose program tracer keeps
// every request (trace shares). Their state fingerprints must match.
// Round 2, untraced, is the ledger's measured round: by then the KPI
// histograms are full, as in steady state. Later rounds run under benchmark
// spans until the time budget is spent.
func traceSteady(r *run, s *stack, length sim.Time) error {
	seed := r.opts.seed
	r.devices = len(s.c.Devices)
	// Every timed round here starts from a collected heap, as in
	// timedRounds.
	before := snapStack(s)
	runtime.GC()
	t0 := time.Now()
	ref := s.round(seed, 0, length, nil)
	w0 := time.Since(t0)
	after := snapStack(s)
	prints := s.ss.Fingerprints()
	r.attempted, r.failed = ref.submitted, ref.submitted-ref.completed
	r.setServeLatency(ref)
	r.setStackCounts(before, after, float64(ref.submitted), float64(length/senseEvery))
	r.check("every-request-completes", r.failed == 0,
		"%d of %d requests failed or never completed", r.failed, r.attempted)

	traced, err := buildStack(seed)
	if err != nil {
		return err
	}
	traced.c.Tracer.SetSampleEvery(1)
	traced.c.Tracer.SetMaxTraces(1 << 20)
	runtime.GC()
	t1 := time.Now()
	tout := traced.round(seed, 0, length, nil)
	w1 := time.Since(t1)
	r.setTraceShares(traced.c.Tracer.Traces(), float64(tout.submitted))
	r.set("trace.overhead_ratio", w1.Seconds()/w0.Seconds()-1)
	r.checkFingerprints(prints, traced.ss.Fingerprints())

	s.round(seed, 1, length, nil)
	before = snapStack(s)
	runtime.GC()
	t2 := time.Now()
	s.round(seed, 2, length, nil)
	w2 := time.Since(t2)
	r.setServeLedger(serveLedger(s, before, snapStack(s)), w2)

	err = r.timedRounds(rounds{perSecond: steadyRounds.perSecond, min: 1}, nil, func(i int) (int64, error) {
		out := s.round(seed, i+3, length, r.spans)
		return out.submitted, nil
	}, nil)
	return err
}

// checkFingerprints compares the per-cell state of the untraced and
// traced runs of one seed: tracing must not change what the stack does.
func (r *run) checkFingerprints(untraced, traced map[string][]byte) {
	diff := 0
	for cell, want := range untraced {
		if string(traced[cell]) != string(want) {
			diff++
		}
	}
	for cell := range traced {
		if _, ok := untraced[cell]; !ok {
			diff++
		}
	}
	r.check("fingerprints-traced-equal", diff == 0 && len(untraced) > 0,
		"%d state cells compared, %d differ between traced and untraced runs", len(untraced), diff)
}
