package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"myrtus/internal/chaos"
	"myrtus/internal/continuum"
	"myrtus/internal/mirto"
	"myrtus/internal/sim"
	"myrtus/internal/tosca"
)

// control-churn generator parameters. Edge-300 (335 devices) rather than
// edge-1000: one edge-1000 heartbeat into the 3-replica KB takes ~225 ms,
// too slow to collect a tail of control operations. The fleet runs the 96
// pipelines of the repository's BenchmarkA5DeltaReplan, split in two
// because a 96-chain wide app does not fit at edge-300. The rates of
// crashes, repairs and app restarts come from the edge-flap chaos
// scenario (see flap).
const (
	churnEdge    = 300
	churnChains  = 48              // wide app: 48 camera→detector→aggregator chains
	churnApps    = 48              // small pipeline apps running at any time
	churnRound   = 10 * sim.Second // virtual length of one round
	churnDetectK = 2
)

// churnRounds: every round runs on a fresh fleet, so none needs warming;
// a round takes ~1.6 s.
var churnRounds = rounds{perSecond: 0.6, min: 3}

// flap is the lifecycle of one pipeline in the bundled edge-flap chaos
// scenario (chaos.EdgeFlap), which sets every control-churn rate: an app
// runs for one scenario length, during which the device of each stage in
// crash fails once and is repaired repairAfter later. The wide app's
// chains follow its fault schedule and the small apps its lifetime, so
// per virtual second the fleet sees churnChains × len(crash) ÷ length
// device crashes and churnApps ÷ length app restarts.
type flap struct {
	length      sim.Time
	crash       []string // stage roles crashed per run, in order
	repairAfter sim.Time
}

func edgeFlap() (flap, error) {
	sc := chaos.EdgeFlap(0)
	f := flap{length: sc.Duration}
	crashed := map[string]sim.Time{}
	for _, ev := range sc.Events {
		switch ev.Kind {
		case chaos.DeviceCrash:
			crashed[ev.Target] = ev.At
			f.crash = append(f.crash, strings.TrimPrefix(ev.Target, "stage:"))
		case chaos.DeviceRepair:
			gap := ev.At - crashed[ev.Target]
			if f.repairAfter != 0 && gap != f.repairAfter {
				return f, fmt.Errorf("edge-flap repairs after %v and after %v", f.repairAfter, gap)
			}
			f.repairAfter = gap
		}
	}
	if len(f.crash) == 0 || f.repairAfter <= 0 || f.length <= 0 {
		return f, fmt.Errorf("edge-flap has no crash/repair schedule")
	}
	return f, nil
}

func (f flap) crashRate() float64   { return float64(churnChains*len(f.crash)) / f.length.Seconds() }
func (f flap) restartRate() float64 { return churnApps / f.length.Seconds() }

// chainStage is the wide-app stage of chain i in the given edge-flap
// role.
func chainStage(role string, i int) string {
	prefix := map[string]string{"camera": "cam", "detector": "det", "aggregator": "agg"}[role]
	return fmt.Sprintf("%s-%02d", prefix, i)
}

// wideApp generates `chains` independent camera→detector→aggregator
// pipelines; cameras and aggregators are pinned to the edge and
// aggregators carry medium security, so every stage negotiates against a
// real security bucket.
func wideApp(chains int) string {
	var sb strings.Builder
	sb.WriteString("tosca_definitions_version: tosca_2_0\nmetadata:\n  template_name: churn-wide\ntopology_template:\n  node_templates:\n")
	var cams, aggs []string
	for i := 0; i < chains; i++ {
		cam, det, agg := fmt.Sprintf("cam-%02d", i), fmt.Sprintf("det-%02d", i), fmt.Sprintf("agg-%02d", i)
		cams, aggs = append(cams, cam), append(aggs, agg)
		fmt.Fprintf(&sb, "    %s:\n      type: myrtus.nodes.Container\n      properties: {cpu: 2, memoryMB: 256, gops: 0.4, outMB: 2.0, inMB: 4.0}\n", cam)
		fmt.Fprintf(&sb, "    %s:\n      type: myrtus.nodes.Container\n      properties: {cpu: 2, memoryMB: 512, gops: 6, outMB: 0.2}\n      requirements:\n        - source: %s\n", det, cam)
		fmt.Fprintf(&sb, "    %s:\n      type: myrtus.nodes.Container\n      properties: {cpu: 3, memoryMB: 1024, gops: 4, outMB: 0.05}\n      requirements:\n        - source: %s\n", agg, det)
	}
	sb.WriteString("  policies:\n")
	fmt.Fprintf(&sb, "    - cam-edge:\n        type: myrtus.policies.Placement\n        targets: [%s]\n        properties: {layer: edge}\n", strings.Join(cams, ", "))
	fmt.Fprintf(&sb, "    - agg-edge:\n        type: myrtus.policies.Placement\n        targets: [%s]\n        properties: {layer: edge}\n", strings.Join(aggs, ", "))
	fmt.Fprintf(&sb, "    - agg-medium:\n        type: myrtus.policies.Security\n        targets: [%s]\n        properties: {level: medium}\n", strings.Join(aggs, ", "))
	return sb.String()
}

// fleet is the edge-300 continuum with fencing on, the wide app and
// churnApps small apps deployed; the benchmark owns every plan it deploys.
type fleet struct {
	c     *continuum.Continuum
	m     *mirto.Manager
	rt    *mirto.Runtime
	fl    *mirto.FenceLedger
	fd    *mirto.FailureDetector
	cycle flap
	wide  *mirto.Plan
	small []*mirto.Plan // running small apps, oldest first
	seq   int           // small apps deployed so far
	// hbWrites / repairWrites count the KB writes heartbeats and device
	// repairs made, so the ledger can tell them from the rest.
	hbWrites, repairWrites int64
}

func buildFleet(seed uint64) (*fleet, error) {
	opts := continuum.DefaultOptions()
	opts.Seed = seed
	opts.Multicores, opts.HMPSoCs, opts.RISCVs = churnEdge/3, churnEdge/3, churnEdge/3
	opts.FMDCServers = 2 + churnEdge/10
	c, err := continuum.Build(opts)
	if err != nil {
		return nil, err
	}
	c.Tracer.SetSampleEvery(0)
	f := &fleet{c: c, m: mirto.NewManager(c, mirto.LatencyGoal())}
	if f.cycle, err = edgeFlap(); err != nil {
		return nil, err
	}
	f.rt = mirto.NewRuntime(f.m)
	f.fl = mirto.NewFenceLedger(c.KB)
	f.m.SetFence(f.fl)
	f.rt.SetFence(f.fl)
	f.fd = mirto.NewFailureDetector(c, churnDetectK)
	f.fd.SetFence(f.fl)
	st, err := tosca.Parse(wideApp(churnChains))
	if err != nil {
		return nil, err
	}
	if f.wide, err = f.deploy(st, nil); err != nil {
		return nil, err
	}
	for len(f.small) < churnApps {
		st, err := f.nextSmall()
		if err != nil {
			return nil, err
		}
		plan, err := f.deploy(st, nil)
		if err != nil {
			return nil, err
		}
		f.small = append(f.small, plan)
	}
	return f, nil
}

// nextSmall parses the template of the next small app.
func (f *fleet) nextSmall() (*tosca.ServiceTemplate, error) {
	f.seq++
	return tosca.Parse(pipelineApp(fmt.Sprintf("churn-app-%d", f.seq), "medium"))
}

// deploy places, executes and registers one template, as
// Orchestrator.Deploy does, with each step in its own benchmark span.
func (f *fleet) deploy(st *tosca.ServiceTemplate, sp *spanLog) (*mirto.Plan, error) {
	id := sp.begin("mirto.deploy")
	defer sp.end(id)
	sid := sp.begin("plan.plan")
	plan, err := f.m.Plan(st)
	sp.end(sid)
	if err != nil {
		return nil, err
	}
	sid = sp.begin("plan.execute")
	err = f.m.Execute(plan)
	sp.end(sid)
	if err != nil {
		return nil, err
	}
	sid = sp.begin("plan.register")
	f.rt.Register(plan)
	sp.end(sid)
	return plan, nil
}

func (f *fleet) undeploy(plan *mirto.Plan, sp *spanLog) {
	id := sp.begin("mirto.undeploy")
	f.rt.Deregister(plan.App)
	f.m.Teardown(plan)
	sp.end(id)
}

// onFailed lists the plan's stages whose device has failed.
func (f *fleet) onFailed(plan *mirto.Plan) []string {
	var bad []string
	for _, a := range plan.Assignments {
		if d := f.c.Devices[a.Device]; d == nil || d.Failed() {
			bad = append(bad, a.TemplateNode+"@"+a.Device)
		}
	}
	return bad
}

func (f *fleet) pods() int {
	n := 0
	for _, cl := range f.c.Layers() {
		n += len(cl.Pods())
	}
	return n
}

// churnOutcome is one round's control-plane record.
type churnOutcome struct {
	deploys, undeploys, replans, repairs, ticks int64
	errs                                        []string // failed deploys/replans, stages left on failed devices
	deployMs, replanMs, senseMs                 []float64
	opMs                                        []float64 // every control operation
	scored, replaced, pods                      int64
}

// ops counts the round's control operations, sensing ticks included.
func (o *churnOutcome) ops() int64 {
	return o.deploys + o.undeploys + o.replans + o.repairs + o.ticks
}

// round runs round i on the sim clock: Poisson app restarts (the oldest
// small app is undeployed and a new one deployed, as one edge-flap run
// ends and the next begins), Poisson crashes of the devices of wide-app
// chains' edge-flap stages (each followed at once by a delta replan and
// repaired edge-flap's repair delay later) and a sensing tick every
// 250 ms; it then drains the pending repairs. Every control operation is
// wall-timed. countPods (traced reference round only) also counts the
// pods each deploy created.
func (f *fleet) round(seed uint64, i int, length sim.Time, sp *spanLog, countPods bool) *churnOutcome {
	eng := f.c.Engine
	out := &churnOutcome{}
	rng := sim.NewRNG(seed).Fork(fmt.Sprintf("control-churn/round-%d", i))
	t0 := eng.Now()
	end := t0 + length
	ms := func(since time.Time) float64 { return float64(time.Since(since)) / 1e6 }

	// App restarts; templates are generated and parsed up front, so a
	// deploy's timing covers placement, execution and registration.
	for _, at := range arrivals(rng, t0, length, f.cycle.restartRate()) {
		st, err := f.nextSmall()
		if err != nil {
			out.errs = append(out.errs, err.Error())
			continue
		}
		eng.At(at, func() {
			if len(f.small) > 0 {
				w := time.Now()
				f.undeploy(f.small[0], sp)
				out.opMs = append(out.opMs, ms(w))
				f.small = f.small[1:]
				out.undeploys++
			}
			pods := 0
			if countPods {
				pods = f.pods()
			}
			w := time.Now()
			plan, err := f.deploy(st, sp)
			out.deployMs = append(out.deployMs, ms(w))
			out.opMs = append(out.opMs, ms(w))
			out.deploys++
			if err != nil {
				out.errs = append(out.errs, fmt.Sprintf("deploy %s: %v", st.Name, err))
				return
			}
			if countPods {
				out.pods += int64(f.pods() - pods)
			}
			f.small = append(f.small, plan)
			if bad := f.onFailed(plan); len(bad) > 0 {
				out.errs = append(out.errs, fmt.Sprintf("deploy %s placed on failed devices %v", plan.App, bad))
			}
		})
	}
	// Crashes of the devices of wide-app chains' edge-flap stages.
	targets := churnChains * len(f.cycle.crash)
	for _, at := range arrivals(rng, t0, length, f.cycle.crashRate()) {
		pick := rng.Intn(targets)
		eng.At(at, func() {
			// The picked chain's stage, or the next one whose device is still
			// up, so every crash event fails one device.
			dev := ""
			for k := 0; k < targets && dev == ""; k++ {
				p := (pick + k) % targets
				a, ok := f.wide.Assignment(chainStage(f.cycle.crash[p%len(f.cycle.crash)], p/len(f.cycle.crash)))
				if ok && !f.c.Devices[a.Device].Failed() {
					dev = a.Device
				}
			}
			if err := f.c.FailDevice(dev); err != nil {
				out.errs = append(out.errs, err.Error())
				return
			}
			w := time.Now()
			id := sp.begin("mirto.replan")
			did := sp.begin("plan.delta")
			dirty := f.m.DirtyStages(f.wide)
			np, stats, err := f.m.DeltaReplan(f.wide, dirty)
			sp.end(did)
			if err == nil {
				rid := sp.begin("plan.register")
				f.rt.Register(np)
				sp.end(rid)
			}
			sp.end(id)
			out.replanMs = append(out.replanMs, ms(w))
			out.opMs = append(out.opMs, ms(w))
			out.replans++
			if err != nil {
				out.errs = append(out.errs, fmt.Sprintf("replan after %s: %v", dev, err))
				return
			}
			f.wide = np
			out.scored += int64(stats.Scored)
			out.replaced += int64(stats.Replaced)
			if bad := f.onFailed(np); len(bad) > 0 {
				out.errs = append(out.errs, fmt.Sprintf("replan left stages on failed devices %v", bad))
			}
			eng.After(f.cycle.repairAfter, func() {
				w := time.Now()
				id := sp.begin("continuum.repair")
				rev := f.c.KB.Revision()
				err := f.c.RepairDevice(dev)
				f.repairWrites += f.c.KB.Revision() - rev
				sp.end(id)
				out.opMs = append(out.opMs, ms(w))
				out.repairs++
				if err != nil {
					out.errs = append(out.errs, err.Error())
				}
			})
		})
	}
	for at := t0 + senseEvery; at <= end; at += senseEvery {
		eng.At(at, func() {
			w := time.Now()
			id := sp.begin("continuum.heartbeat")
			rev := f.c.KB.Revision()
			f.c.Heartbeat()
			f.hbWrites += f.c.KB.Revision() - rev
			sp.end(id)
			id = sp.begin("mirto.detector_tick")
			f.fd.Tick()
			sp.end(id)
			out.senseMs = append(out.senseMs, ms(w))
			out.opMs = append(out.opMs, ms(w))
			out.ticks++
		})
	}
	id := sp.begin("sim.run")
	eng.RunUntil(end)
	eng.Run()
	sp.end(id)
	return out
}

// setChurnLatency records the latency views of the rounds' wall-timed
// operations. lat_* pools every control operation (~88 a round), so a run
// has enough samples for a p99; each kind also has its own view.
func (r *run) setChurnLatency(outs []*churnOutcome) {
	var all, deploy, replan, sense []float64
	for _, o := range outs {
		all = append(all, o.opMs...)
		deploy = append(deploy, o.deployMs...)
		replan = append(replan, o.replanMs...)
		sense = append(sense, o.senseMs...)
	}
	r.set("lat_p50_ms", quantile(all, 0.50))
	r.set("lat_p99_ms", quantile(all, 0.99))
	r.set("e2e.deploy_p50_ms", quantile(deploy, 0.50))
	r.set("e2e.deploy_p99_ms", quantile(deploy, 0.99))
	r.set("e2e.replan_p50_ms", quantile(replan, 0.50))
	r.set("e2e.replan_p95_ms", quantile(replan, 0.95))
	r.set("e2e.sense_p50_ms", quantile(sense, 0.50))
	r.set("e2e.sense_p95_ms", quantile(sense, 0.95))
	r.note("control operations timed: %d in all, %d deploys, %d replans, %d sensing ticks", len(all), len(deploy), len(replan), len(sense))
}

// runChurn gives every round a fresh fleet built from the seed: a
// long-lived fleet slows round after round (its KB keeps keys of every
// undeployed app), which would make the rate depend on the round count.
func runChurn(r *run) error {
	seed := r.opts.seed
	length := sim.Time(float64(churnRound) * r.opts.scale)
	f, err := setups(r, func() (*fleet, error) { return buildFleet(seed) })
	if err != nil {
		return err
	}
	r.devices = len(f.c.Devices)
	var outs []*churnOutcome
	var errs []string
	record := func(o *churnOutcome) {
		outs = append(outs, o)
		r.attempted += o.ops()
		r.failed += int64(len(o.errs))
		errs = append(errs, o.errs...)
	}
	fresh := func(i int) error {
		if i == 0 {
			return nil // the set-up fleet
		}
		f, err = buildFleet(seed)
		return err
	}
	if r.opts.trace {
		if err := traceChurn(r, f, length, record); err != nil {
			return err
		}
	} else {
		err = r.timedRounds(churnRounds, fresh, func(i int) (int64, error) {
			o := f.round(seed, i, length, nil, false)
			record(o)
			return o.ops(), nil
		}, func() { r.liveHeap(f) })
		if err != nil {
			return err
		}
	}
	r.setChurnLatency(outs)
	first := ""
	if len(errs) > 0 {
		first = ": " + errs[0]
	}
	r.check("control-ops-succeed", len(errs) == 0,
		"%d of %d control operations failed or left a stage on a failed device%s", len(errs), r.attempted, first)
	r.set("e2e.fail_ratio", ratio(float64(r.failed), float64(r.attempted)))
	return nil
}

// traceChurn is the traced run: round 0, untraced on the set-up fleet, is
// the reference for counts and the ledger's measured round; later rounds
// run on fresh fleets under benchmark spans.
func traceChurn(r *run, f *fleet, length sim.Time, record func(*churnOutcome)) error {
	seed := r.opts.seed
	// The ledger's unit costs are the mean of the costs at the start of
	// the measured round (on an identical fresh fleet, so the round itself
	// is undisturbed) and at its end: heartbeat and repair costs grow
	// with the KB as the round runs.
	start, err := buildFleet(seed)
	if err != nil {
		return err
	}
	pre, err := measureChurn(start)
	if err != nil {
		return err
	}
	start = nil
	runtime.GC()
	b := snapFleet(f)
	t0 := time.Now()
	ref := f.round(seed, 0, length, nil, true)
	w := time.Since(t0)
	a := snapFleet(f)
	record(ref)
	r.setSubstrate(a.sub.delta(b.sub), 0, float64(ref.ticks))
	r.set("plan.scored_per_replan", ratio(float64(ref.scored), float64(ref.replans)))
	r.set("plan.replaced_per_replan", ratio(float64(ref.replaced), float64(ref.replans)))
	r.set("cluster.pods_per_deploy", ratio(float64(ref.pods), float64(ref.deploys)))
	r.set("fence.tokens_minted", float64(a.fence.TokensMinted-b.fence.TokensMinted))
	r.set("fence.epoch_rejects", float64(a.fence.PlanEpochRejects-b.fence.PlanEpochRejects))
	post, err := measureChurn(f)
	if err != nil {
		return err
	}
	unit := pre.mean(post)
	r.set("kb.put_us", unit.put/1e3)
	r.setLedger(unit.ledger(b, a, ref), w)

	err = r.timedRounds(rounds{perSecond: churnRounds.perSecond, min: 1}, func(int) error {
		f, err = buildFleet(seed)
		return err
	}, func(i int) (int64, error) {
		o := f.round(seed, i+1, length, r.spans, false)
		record(o)
		return o.ops(), nil
	}, nil)
	return err
}

type fleetCounts struct {
	sub                    substrate
	fence                  mirto.FenceStats
	hbWrites, repairWrites int64
}

func snapFleet(f *fleet) fleetCounts {
	return fleetCounts{sub: snapSubstrate(f.c), fence: f.fl.Stats(), hbWrites: f.hbWrites, repairWrites: f.repairWrites}
}

// churnCosts are the fleet's control calls' costs in isolation, ns per
// call.
type churnCosts struct {
	heartbeat, detector, put, cycle, delta, failRepair float64
}

func (c churnCosts) mean(d churnCosts) churnCosts {
	return churnCosts{
		heartbeat: (c.heartbeat + d.heartbeat) / 2, detector: (c.detector + d.detector) / 2,
		put: (c.put + d.put) / 2, cycle: (c.cycle + d.cycle) / 2,
		delta: (c.delta + d.delta) / 2, failRepair: (c.failRepair + d.failRepair) / 2,
	}
}

// measureChurn times the fleet's control calls in isolation on the live
// fleet.
func measureChurn(f *fleet) (churnCosts, error) {
	var c churnCosts
	c.heartbeat = perCall(func(int) { f.c.Heartbeat() })
	c.detector = perCall(func(int) { f.fd.Tick() })
	val := make([]byte, 200)
	c.put = perCall(func(i int) { f.c.KB.Put(ledgerKey(i), val) })

	st, err := tosca.Parse(pipelineApp("churn-ledger", "medium"))
	if err != nil {
		return c, err
	}
	var cycleErr error
	c.cycle = perCall(func(int) {
		plan, err := f.deploy(st, nil)
		if err != nil {
			cycleErr = err
			return
		}
		f.undeploy(plan, nil)
	})
	if cycleErr != nil {
		return c, fmt.Errorf("ledger deploy: %w", cycleErr)
	}

	// A delta replan around one failed wide-app device (plan only; the
	// fleet's plan is left as it was), and the fail/repair pair itself.
	dev := f.wide.Assignments[0].Device
	if err := f.c.FailDevice(dev); err != nil {
		return c, err
	}
	dirty := f.m.DirtyStages(f.wide)
	c.delta = perCall(func(int) { f.m.DeltaPlan(f.wide, dirty) }) //nolint:errcheck // feasible: spare capacity
	if err := f.c.RepairDevice(dev); err != nil {
		return c, err
	}
	c.failRepair = perCall(func(int) {
		f.c.FailDevice(dev)   //nolint:errcheck // known device
		f.c.RepairDevice(dev) //nolint:errcheck // known device
	})
	return c, nil
}

// ledger pairs the unit costs with the calls the measured round made.
func (c churnCosts) ledger(b, a fleetCounts, o *churnOutcome) []ledgerItem {
	ticks := float64(o.ticks)
	hb, rep := a.hbWrites-b.hbWrites, a.repairWrites-b.repairWrites
	return []ledgerItem{
		{name: "continuum.heartbeat", unitNs: c.heartbeat, calls: ticks},
		{name: "kb.put", unitNs: c.put, calls: float64(hb), within: "continuum.heartbeat"},
		{name: "kb.put", unitNs: c.put, calls: float64(rep), within: "continuum.fail_repair"},
		{name: "kb.put", unitNs: c.put, calls: float64(a.sub.kbWrites - b.sub.kbWrites - hb - rep)},
		{name: "mirto.detector_tick", unitNs: c.detector, calls: ticks},
		{name: "mirto.deploy_undeploy", unitNs: c.cycle, calls: float64(o.deploys)},
		{name: "plan.delta_plan", unitNs: c.delta, calls: float64(o.replans)},
		{name: "continuum.fail_repair", unitNs: c.failRepair, calls: float64(o.repairs)},
	}
}
