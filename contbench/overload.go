package main

import (
	"errors"
	"fmt"

	"myrtus/internal/mirto"
	"myrtus/internal/sim"
	"myrtus/internal/tenant"
)

// serve-overload generator parameters: each tenant's budget is half of
// 0.9× the calibrated capacity; the medium-priority victim offers 0.8× its
// budget, the high-priority aggressor 4×, both Poisson in virtual time.
const (
	victimMult    = 0.8
	aggressorMult = 4.0
	overloadItems = 4
	overloadRound = 60 * sim.Second
)

// overloadRounds: three 60 s warm-up rounds fill the KPI histograms of
// both tenants' MAPE-K loops; a timed round then takes ~3 s.
var overloadRounds = rounds{warmup: 3, perSecond: 0.27, min: 3}

// pipelineApp is a camera→detector→aggregator pipeline named name; level
// is the aggregator's Table II security level, which sets the app's
// admission priority.
func pipelineApp(name, level string) string {
	return fmt.Sprintf(`
tosca_definitions_version: tosca_2_0
metadata:
  template_name: %s
topology_template:
  node_templates:
    camera:
      type: myrtus.nodes.Container
      properties: {cpu: 0.5, memoryMB: 128, gops: 0.2, outMB: 0.1, inMB: 0.2}
    detector:
      type: myrtus.nodes.AcceleratedKernel
      properties: {cpu: 1, memoryMB: 256, kernel: conv2d, gops: 2, outMB: 0.05}
      requirements:
        - source: camera
    aggregator:
      type: myrtus.nodes.Container
      properties: {cpu: 1.5, memoryMB: 512, gops: 1, outMB: 0.01}
      requirements:
        - source: detector
  policies:
    - cam-edge:
        type: myrtus.policies.Placement
        targets: [camera]
        properties: {layer: edge}
    - sec:
        type: myrtus.policies.Security
        targets: [aggregator]
        properties: {level: %s}
`, name, level)
}

func overloadSpecs() []tenant.Spec {
	return []tenant.Spec{
		{ID: "victim", Class: mirto.PriorityMedium,
			Quota: tenant.Quota{AdmissionShare: 0.5, Weight: 1},
			Apps:  []string{pipelineApp("ov-victim", "medium")}},
		{ID: "aggressor", Class: mirto.PriorityHigh,
			Quota: tenant.Quota{AdmissionShare: 0.5, Weight: 1},
			Apps:  []string{pipelineApp("ov-aggressor", "high")}},
	}
}

// tenants is a calibrated two-tenant system with quotas on.
type tenants struct {
	*tenant.System
	budget float64 // each tenant's admission budget, req/s
}

func buildTenants(seed uint64) (*tenants, error) {
	specs := overloadSpecs()
	capacity, deadline, err := tenant.Calibrate(seed, specs, overloadItems)
	if err != nil {
		return nil, err
	}
	s, err := tenant.BuildSystem(seed, specs, true, capacity, deadline)
	if err != nil {
		return nil, err
	}
	s.C.Tracer.SetSampleEvery(0)
	return &tenants{System: s, budget: 0.5 * 0.9 * capacity}, nil
}

// overloadOutcome is one round's result, per tenant.
type overloadOutcome struct {
	victim, aggressor tenantOutcome
}

type tenantOutcome struct {
	submitted, good, late, failed, shed int64
	lat                                 []float64 // virtual ms of completed requests
}

func (t *tenantOutcome) goodput() float64 { return ratio(float64(t.good), float64(t.submitted)) }

// victimFailed counts the victim's requests that failed, were shed or
// finished past the deadline.
func (o *overloadOutcome) victimFailed() int64 {
	return o.victim.failed + o.victim.shed + o.victim.late
}

func (s *tenants) round(seed uint64, i int, length sim.Time, sp *spanLog) *overloadOutcome {
	eng := s.C.Engine
	out := &overloadOutcome{}
	t0 := eng.Now()
	end := t0 + length
	arrivals := func(id string, rate float64, res *tenantOutcome) {
		app := s.Apps[id][0]
		rng := sim.NewRNG(seed).Fork(fmt.Sprintf("serve-overload/%s/round-%d", id, i))
		for _, due := range arrivals(rng, t0, length, rate) {
			eng.At(due, func() {
				res.submitted++
				count := func(lat sim.Time, err error) {
					switch {
					case errors.Is(err, mirto.ErrOverloaded):
						res.shed++
					case err != nil:
						res.failed++
					default:
						res.lat = append(res.lat, float64(lat)/float64(sim.Millisecond))
						if lat <= s.Deadline {
							res.good++
						} else {
							res.late++
						}
					}
				}
				id := sp.begin("tenant.submit")
				err := s.Submit(app, overloadItems, func(_ sim.Time, _ float64, err error) {
					count(eng.Now()-due, err)
				})
				sp.end(id)
				if err != nil {
					count(0, err)
				}
			})
		}
	}
	arrivals("victim", victimMult*s.budget, &out.victim)
	arrivals("aggressor", aggressorMult*s.budget, &out.aggressor)
	for at := t0 + senseEvery; at <= end; at += senseEvery {
		eng.At(at, func() {
			id := sp.begin("tenant.tick")
			s.Tick()
			sp.end(id)
		})
	}
	id := sp.begin("sim.run")
	eng.RunUntil(end)
	eng.Run()
	sp.end(id)
	return out
}

// tenantCounts snapshots the tenant-layer counters.
type tenantCounts struct {
	sub                        substrate
	dispatched, admitted, shed int64
	opens, fasts               int64
}

func snapTenants(s *tenants) tenantCounts {
	out := tenantCounts{sub: snapSubstrate(s.C)}
	for _, t := range s.Reg.List() {
		out.dispatched += s.Disp.Dispatched(t.ID)
		for _, p := range t.Admission().Stats() {
			out.admitted += p.Admitted
			out.shed += p.Shed()
		}
	}
	if bs := s.O.R.Breakers(); bs != nil {
		out.opens, out.fasts = bs.Stats()
	}
	return out
}

func (r *run) setOverloadLatency(o *overloadOutcome) {
	r.set("lat_p50_ms", quantile(o.victim.lat, 0.50))
	r.set("lat_p99_ms", quantile(o.victim.lat, 0.99))
	r.set("e2e.fail_ratio", ratio(float64(o.victimFailed()), float64(o.victim.submitted)))
}

func runOverload(r *run) error {
	seed := r.opts.seed
	length := sim.Time(float64(overloadRound) * r.opts.scale)
	s, err := setups(r, func() (*tenants, error) { return buildTenants(seed) })
	if err != nil {
		return err
	}
	minGoodput := 1.0
	record := func(out *overloadOutcome) {
		r.attempted += out.victim.submitted + out.aggressor.submitted
		r.failed += out.victimFailed()
		if g := out.victim.goodput(); g < minGoodput {
			minGoodput = g
		}
	}
	if r.opts.trace {
		before := snapTenants(s)
		ref := s.round(seed, 0, length, nil)
		after := snapTenants(s)
		record(ref)
		r.setOverloadLatency(ref)
		reqs := float64(ref.victim.submitted + ref.aggressor.submitted)
		r.setSubstrate(after.sub.delta(before.sub), reqs, float64(length/senseEvery))
		r.set("tenant.dispatched", float64(after.dispatched-before.dispatched))
		r.set("admission.admitted", float64(after.admitted-before.admitted))
		r.set("admission.shed_ratio", ratio(float64(after.shed-before.shed), float64(after.admitted+after.shed-before.admitted-before.shed)))
		r.set("breaker.opens", float64(after.opens-before.opens))
		r.set("breaker.fast_fails", float64(after.fasts-before.fasts))
		r.note("round 0: %.0f of %d requests exited at admission or in the dispatcher",
			reqs-float64(after.dispatched-before.dispatched), int64(reqs))
		plan, _ := s.O.PlanFor(s.Apps["victim"][0])
		cam, _ := plan.Assignment("camera")
		det, _ := plan.Assignment("detector")
		r.setUnitCosts(unitCosts(s.C, cam.Device, det.Device))
		// Rounds 1 and 2 finish the warm-up untraced; spans cover the rest.
		err = r.timedRounds(rounds{warmup: overloadRounds.warmup - 1, perSecond: overloadRounds.perSecond, min: 1}, nil, func(i int) (int64, error) {
			sp := r.spans
			if i < overloadRounds.warmup-1 {
				sp = nil
			}
			out := s.round(seed, i+1, length, sp)
			return out.victim.submitted + out.aggressor.submitted, nil
		}, nil)
	} else {
		var first *overloadOutcome
		err = r.timedRounds(overloadRounds, nil, func(i int) (int64, error) {
			out := s.round(seed, i, length, nil)
			if i == overloadRounds.warmup {
				first = out
			}
			record(out)
			return out.victim.submitted + out.aggressor.submitted, nil
		}, func() { r.liveHeap(s) })
		if err == nil {
			r.setOverloadLatency(first)
		}
	}
	if err != nil {
		return err
	}
	r.check("victim-goodput", minGoodput >= 0.9,
		"lowest per-round victim goodput %.3f (want >= 0.9)", minGoodput)
	return nil
}
