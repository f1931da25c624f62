package main

import (
	"fmt"
	"time"

	"myrtus/internal/chaos"
)

// suiteRounds: a pass over the suite takes ~6.7 s.
var suiteRounds = rounds{perSecond: 0.15, min: 2}

// suitePass is one run of every registered scenario.
type suitePass struct {
	wall     time.Duration
	scenario []float64       // each scenario's wall time, ms
	renders  []string        // each scenario's deterministic report
	verdicts []string        // "" = every gate held
	events   []*chaos.Report // event scenarios' reports
	arms     []*chaos.Report // every report, harness arms included
}

// runSuite runs every scenario in chaos.Names() once: event scenarios
// through chaos.Run with the stateful app and the MAPE-K stack (which
// includes their fault-free reference run), harnesses end to end.
func runSuite(seed uint64, sp *spanLog) (*suitePass, error) {
	p := &suitePass{}
	t0 := time.Now()
	for _, name := range chaos.Names() {
		reg, _ := chaos.Lookup(name)
		ts := time.Now()
		id := sp.begin("chaos." + name)
		if reg.Harness != nil {
			rep, err := reg.Harness(seed, true)
			sp.end(id)
			p.scenario = append(p.scenario, float64(time.Since(ts))/1e6)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			p.renders = append(p.renders, rep.Render())
			p.verdicts = append(p.verdicts, rep.Violated())
			p.arms = append(p.arms, harnessArms(rep)...)
			continue
		}
		rep, err := chaos.Run(chaos.Statefulize(reg.Events(seed)), chaos.Config{Seed: seed, MAPEK: true, Stateful: true})
		sp.end(id)
		p.scenario = append(p.scenario, float64(time.Since(ts))/1e6)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p.renders = append(p.renders, rep.Render())
		p.verdicts = append(p.verdicts, eventVerdict(rep))
		p.events = append(p.events, rep)
		p.arms = append(p.arms, rep)
	}
	p.wall = time.Since(t0)
	return p, nil
}

// eventVerdict applies the self-healing bars to an event scenario:
// availability >= 99%, no committed state lost, no divergent cell.
func eventVerdict(rep *chaos.Report) string {
	switch {
	case rep.Availability() < 0.99:
		return fmt.Sprintf("availability %.2f%% < 99%%", 100*rep.Availability())
	case rep.RPOItems != 0:
		return fmt.Sprintf("RPO %d items lost", rep.RPOItems)
	case len(rep.DivergentCells) != 0:
		return fmt.Sprintf("%d state cells diverged from the fault-free run", len(rep.DivergentCells))
	}
	return ""
}

// harnessArms returns the per-arm reports a harness exposes.
func harnessArms(rep chaos.HarnessReport) []*chaos.Report {
	var arms []*chaos.Report
	switch h := rep.(type) {
	case *chaos.GrayFailRunReport:
		arms = []*chaos.Report{h.Baseline, h.Defense, h.HedgeOnly, h.Control}
	case *chaos.DrainRunReport:
		arms = []*chaos.Report{h.Drain, h.Crash, h.MidCrash}
	case *chaos.SplitBrainRunReport:
		arms = []*chaos.Report{h.Baseline, h.Defense, h.Control}
	}
	var out []*chaos.Report
	for _, a := range arms {
		if a != nil {
			out = append(out, a)
		}
	}
	return out
}

// setSuiteCounts records the count-type per-layer metrics of one pass,
// summed over every report the pass produced.
func (r *run) setSuiteCounts(p *suitePass) {
	var delta, full, fulls, deltas, bytes, applied, dedup, tokens, rejects, retries, drops int64
	var opens, fasts int64
	var dispatches, hedges uint64
	var mttr []float64
	for _, rep := range p.arms {
		delta += int64(rep.DeltaReplans)
		full += int64(rep.FullReplans)
		opens += rep.BreakerOpens
		fasts += rep.BreakerFastFails
		dispatches += rep.Health.Dispatches
		hedges += rep.Health.HedgesFired
		applied += int64(rep.StateApplied)
		dedup += int64(rep.DedupHits)
		fulls += int64(rep.Ckpt.Fulls)
		deltas += int64(rep.Ckpt.Deltas)
		bytes += int64(rep.Ckpt.BytesSent)
		tokens += int64(rep.Fence.TokensMinted)
		rejects += int64(rep.Fence.PlanEpochRejects)
		retries += rep.Fabric.Retries
		drops += rep.Fabric.QueueDrops
	}
	avail := 100.0
	for _, rep := range p.events {
		for _, s := range rep.MTTRSamples {
			mttr = append(mttr, s.Seconds()*1e3)
		}
		if a := 100 * rep.Availability(); a < avail {
			avail = a
		}
	}
	r.set("chaos.replans_delta", float64(delta))
	r.set("chaos.replans_full", float64(full))
	r.set("chaos.mttr_p95_ms", quantile(mttr, 0.95))
	r.set("breaker.opens", float64(opens))
	r.set("breaker.fast_fails", float64(fasts))
	r.set("health.dispatches", float64(dispatches))
	r.set("health.hedges_fired", float64(hedges))
	r.set("state.applied", float64(applied))
	r.set("state.dedup_hits", float64(dedup))
	r.set("checkpoint.fulls", float64(fulls))
	r.set("checkpoint.deltas", float64(deltas))
	r.set("checkpoint.bytes", float64(bytes))
	r.set("fence.tokens_minted", float64(tokens))
	r.set("fence.epoch_rejects", float64(rejects))
	r.set("fabric.retries", float64(retries))
	r.set("fabric.queue_drops", float64(drops))
	r.set("e2e.availability_min", avail)
}

func runChaosSuite(r *run) error {
	seed := r.opts.seed
	// Set-up builds the default continuum with the stateful app and the
	// self-healing stack deployed: the substrate every event scenario
	// starts from. The traced run times its hot-path calls in isolation.
	s, err := setups(r, func() (*stack, error) { return buildStack(seed) })
	if err != nil {
		return err
	}
	var first *suitePass
	var walls, scenarios []float64
	violated := map[string]string{}
	diverged := 0
	err = r.timedRounds(suiteRounds, nil, func(i int) (int64, error) {
		p, err := runSuite(seed, r.spans)
		if err != nil {
			return 0, err
		}
		if first == nil {
			first = p
		}
		for j, v := range p.verdicts {
			name := chaos.Names()[j]
			if v != "" {
				violated[name] = v
				r.failed++
			}
			if p.renders[j] != first.renders[j] {
				diverged++
			}
		}
		r.attempted += int64(len(p.verdicts))
		walls = append(walls, p.wall.Seconds())
		scenarios = append(scenarios, p.scenario...)
		return int64(len(p.verdicts)), nil
	}, func() { r.liveHeap([]any{s, first}) })
	if err != nil {
		return err
	}
	r.check("scenario-gates-hold", len(violated) == 0, "violated: %v", violated)
	r.check("reports-repeat", diverged == 0,
		"%d scenario reports differ from the first pass of the same seed", diverged)
	r.set("e2e.chaos_wall_s", median(walls))
	// A scenario is the operation: its latency is its wall time. A run has
	// few samples, so the p99 is the slowest scenario. (The virtual
	// latency of the scenarios' requests is no fit: its p99 doubles on
	// some seeds, when retries pile up in a fault window.)
	r.set("lat_p50_ms", quantile(scenarios, 0.50))
	r.set("lat_p99_ms", quantile(scenarios, 0.99))
	r.set("e2e.fail_ratio", ratio(float64(r.failed), float64(r.attempted)))
	if r.opts.trace {
		r.setSuiteCounts(first)
		plan, _ := s.o.PlanFor(s.app)
		cam, _ := plan.Assignment("camera")
		det, _ := plan.Assignment("detector")
		r.setUnitCosts(unitCosts(s.c, cam.Device, det.Device))
	} else {
		avail := 100.0
		for _, rep := range first.events {
			avail = min(avail, 100*rep.Availability())
		}
		r.set("e2e.availability_min", avail)
	}
	return nil
}
