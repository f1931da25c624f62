package main

// e2eMetric is one end-to-end metric, reported by every workload's
// untraced run. bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression. Over two
// batches of ten seeds each on a shared 2-vCPU machine, the interquartile
// spread of the wall-clock metrics (ops_per_s; lat_* on control-churn)
// was 0.06-0.24 of the median (setup_s up to 0.36), and the medians of the
// two batches differed by up to 0.16: the machine's speed drifts over
// minutes. Three times that spread exceeds the largest bound allowed,
// 0.25, so those metrics get 0.25. heap_mb spread at most 0.005 and its
// batch medians differed by at most 0.001, so it gets 0.05.
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the metrics a user of the continuum sees. Each is
// defined on every workload, which names the operation (README.md gives
// the definitions).
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p99_ms", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.05},
}

// layerMetric is one per-layer metric of the traced run. moves names the
// end-to-end metric it should move and on the workload(s) where it
// should move most; little is where it should barely register. exact
// marks metrics that repeat exactly for a seed (counts, virtual time).
type layerMetric struct {
	name, unit        string
	exact             bool
	moves, on, little string
}

// perLayer lists every per-layer metric, named <module>.<metric>. The
// e2e.* rows are workload-specific end-to-end views (failure ratio,
// replan and sensing latency, chaos wall time, availability) that are not
// defined on every workload, so they carry no bound.
var perLayer = []layerMetric{
	// Workload-specific end-to-end views.
	{"e2e.fail_ratio", "ratio", true, "-", "all", "-"},
	{"e2e.deploy_p50_ms", "ms", false, "ops_per_s", "control-churn", "serve-*"},
	{"e2e.deploy_p99_ms", "ms", false, "ops_per_s", "control-churn", "serve-*"},
	{"e2e.replan_p50_ms", "ms", false, "ops_per_s", "control-churn", "serve-*"},
	{"e2e.replan_p95_ms", "ms", false, "ops_per_s", "control-churn", "serve-*"},
	{"e2e.sense_p50_ms", "ms", false, "ops_per_s", "control-churn", "serve-*"},
	{"e2e.sense_p95_ms", "ms", false, "ops_per_s", "control-churn", "serve-*"},
	{"e2e.chaos_wall_s", "s", false, "ops_per_s", "chaos-suite", "-"},
	{"e2e.availability_min", "%", true, "-", "chaos-suite", "-"},

	// mapek, telemetry
	{"mapek.iterate_us", "us", false, "ops_per_s", "serve-steady", "control-churn"},
	{"telemetry.kpis_us", "us", false, "ops_per_s", "serve-steady", "control-churn"},
	{"mapek.iterations", "count", true, "ops_per_s", "serve-steady", "control-churn"},
	// mirto runtime, sim
	{"mirto.submit_us", "us", false, "ops_per_s, lat_*", "serve-*", "control-churn"},
	{"sim.events_per_req", "count", true, "ops_per_s, lat_*", "serve-*", "control-churn"},
	{"sim.run_self_ms", "ms", false, "ops_per_s, lat_*", "serve-*", "control-churn"},
	// mirto admission, tenant
	{"admission.admitted", "count", true, "ops_per_s, e2e.fail_ratio", "serve-overload", "serve-steady"},
	{"admission.shed_ratio", "ratio", true, "ops_per_s, e2e.fail_ratio", "serve-overload", "serve-steady"},
	{"admission.admit_ns", "ns", false, "ops_per_s, e2e.fail_ratio", "serve-overload", "serve-steady"},
	{"tenant.dispatched", "count", true, "ops_per_s, e2e.fail_ratio", "serve-overload", "serve-steady"},
	{"tenant.submit_us", "us", false, "ops_per_s, e2e.fail_ratio", "serve-overload", "serve-steady"},
	// mirto breaker, health
	{"breaker.opens", "count", true, "ops_per_s, e2e.availability_min", "chaos-suite", "serve-steady"},
	{"breaker.fast_fails", "count", true, "ops_per_s, e2e.availability_min", "chaos-suite", "serve-steady"},
	{"health.dispatches", "count", true, "ops_per_s, e2e.availability_min", "chaos-suite", "serve-steady"},
	{"health.hedges_fired", "count", true, "ops_per_s, e2e.availability_min", "chaos-suite", "serve-steady"},
	{"health.tick_us", "us", false, "ops_per_s, e2e.availability_min", "chaos-suite", "serve-steady"},
	// mirto state, checkpoint, fence
	{"state.applied", "count", true, "ops_per_s, e2e.chaos_wall_s", "serve-steady, chaos-suite", "serve-overload"},
	{"state.dedup_hits", "count", true, "ops_per_s, e2e.chaos_wall_s", "serve-steady, chaos-suite", "serve-overload"},
	{"state.apply_ns", "ns", false, "ops_per_s, e2e.chaos_wall_s", "serve-steady, chaos-suite", "serve-overload"},
	{"checkpoint.tick_us", "us", false, "ops_per_s, e2e.chaos_wall_s", "serve-steady, chaos-suite", "serve-overload"},
	{"checkpoint.fulls", "count", true, "ops_per_s, e2e.chaos_wall_s", "serve-steady, chaos-suite", "serve-overload"},
	{"checkpoint.deltas", "count", true, "ops_per_s, e2e.chaos_wall_s", "serve-steady, chaos-suite", "serve-overload"},
	{"checkpoint.bytes", "count", true, "ops_per_s, e2e.chaos_wall_s", "serve-steady, chaos-suite", "serve-overload"},
	{"fence.tokens_minted", "count", true, "ops_per_s, e2e.chaos_wall_s", "serve-steady, chaos-suite", "serve-overload"},
	{"fence.epoch_rejects", "count", true, "ops_per_s, e2e.chaos_wall_s", "serve-steady, chaos-suite", "serve-overload"},
	// mirto planner
	{"plan.plan_us", "us", false, "e2e.deploy_*", "control-churn", "serve-*"},
	{"plan.execute_us", "us", false, "e2e.deploy_*", "control-churn", "serve-*"},
	{"plan.register_us", "us", false, "e2e.deploy_*", "control-churn", "serve-*"},
	{"plan.delta_us", "us", false, "e2e.replan_*", "control-churn", "serve-*"},
	{"plan.scored_per_replan", "count", true, "e2e.replan_*", "control-churn", "serve-*"},
	{"plan.replaced_per_replan", "count", true, "e2e.replan_*", "control-churn", "serve-*"},
	// cluster
	{"cluster.pods_per_deploy", "count", true, "e2e.deploy_*", "control-churn", "serve-*"},
	// kb, continuum
	{"kb.msgs_per_write", "count", true, "e2e.sense_*, ops_per_s", "control-churn", "serve-steady"},
	{"kb.writes_per_tick", "count", true, "e2e.sense_*, ops_per_s", "control-churn", "serve-steady"},
	{"kb.put_us", "us", false, "e2e.sense_*, ops_per_s", "control-churn", "serve-steady"},
	{"continuum.heartbeat_us_per_device", "us", false, "e2e.sense_*, ops_per_s", "control-churn", "serve-steady"},
	{"continuum.repair_ms", "ms", false, "ops_per_s, e2e.chaos_wall_s", "control-churn", "serve-steady"},
	// network, device
	{"fabric.sends_per_req", "count", true, "lat_*, ops_per_s", "serve-*", "control-churn"},
	{"fabric.retries", "count", true, "lat_*, ops_per_s", "serve-*", "control-churn"},
	{"fabric.queue_drops", "count", true, "lat_*, ops_per_s", "serve-*", "control-churn"},
	{"fabric.send_ns", "ns", false, "lat_*, ops_per_s", "serve-*", "control-churn"},
	{"device.runs_per_req", "count", true, "lat_*, ops_per_s", "serve-*", "control-churn"},
	{"device.run_ns", "ns", false, "lat_*, ops_per_s", "serve-*", "control-churn"},
	// trace (program tracer, traced round only)
	{"trace.spans_per_req", "count", true, "lat_*, ops_per_s", "serve-steady", "-"},
	{"trace.overhead_ratio", "ratio", false, "lat_*, ops_per_s", "serve-steady", "-"},
	{"trace.share.device", "ratio", true, "lat_*, ops_per_s", "serve-steady", "-"},
	{"trace.share.network", "ratio", true, "lat_*, ops_per_s", "serve-steady", "-"},
	{"trace.share.agent", "ratio", true, "lat_*, ops_per_s", "serve-steady", "-"},
	// chaos
	{"chaos.edge-flap_s", "s", false, "e2e.chaos_wall_s, e2e.availability_min", "chaos-suite", "-"},
	{"chaos.fog-partition_s", "s", false, "e2e.chaos_wall_s, e2e.availability_min", "chaos-suite", "-"},
	{"chaos.gray-fail_s", "s", false, "e2e.chaos_wall_s, e2e.availability_min", "chaos-suite", "-"},
	{"chaos.noisy-neighbor_s", "s", false, "e2e.chaos_wall_s, e2e.availability_min", "chaos-suite", "-"},
	{"chaos.planned-drain_s", "s", false, "e2e.chaos_wall_s, e2e.availability_min", "chaos-suite", "-"},
	{"chaos.split-brain_s", "s", false, "e2e.chaos_wall_s, e2e.availability_min", "chaos-suite", "-"},
	{"chaos.replans_delta", "count", true, "e2e.chaos_wall_s, e2e.availability_min", "chaos-suite", "-"},
	{"chaos.replans_full", "count", true, "e2e.chaos_wall_s, e2e.availability_min", "chaos-suite", "-"},
	{"chaos.mttr_p95_ms", "ms", true, "e2e.chaos_wall_s, e2e.availability_min", "chaos-suite", "-"},
	// Go runtime, around the timed rounds only
	{"go.allocs_per_op", "count", false, "ops_per_s, heap_mb", "all", "-"},
	{"go.bytes_per_op", "B", false, "ops_per_s, heap_mb", "all", "-"},
	{"go.gc_cycles", "count", false, "ops_per_s, heap_mb", "all", "-"},
	{"go.gc_pause_ms", "ms", false, "ops_per_s, heap_mb", "all", "-"},
	// ledger and benchmark-span self time
	{"ledger.coverage", "ratio", false, "-", "serve-steady, control-churn", "-"},
	{"sim.self_share", "ratio", false, "ops_per_s", "serve-*", "-"},
	{"mirto.self_share", "ratio", false, "ops_per_s", "serve-*, control-churn", "-"},
	{"mapek.self_share", "ratio", false, "ops_per_s", "serve-steady", "-"},
	{"continuum.self_share", "ratio", false, "ops_per_s, e2e.sense_*", "control-churn", "-"},
	{"health.self_share", "ratio", false, "ops_per_s", "serve-steady", "-"},
	{"checkpoint.self_share", "ratio", false, "ops_per_s", "serve-steady", "-"},
	{"tenant.self_share", "ratio", false, "ops_per_s", "serve-overload", "-"},
	{"plan.self_share", "ratio", false, "e2e.deploy_*, e2e.replan_*", "control-churn", "-"},
	{"chaos.self_share", "ratio", false, "e2e.chaos_wall_s", "chaos-suite", "-"},
}

// suiteOnly lists the per-layer metrics only chaos-suite measures. The
// other workloads do not report them, and BENCHMARK.json leaves them out
// while it leaves out chaos-suite (unbenchmarked).
var suiteOnly = map[string]bool{
	"e2e.chaos_wall_s":       true,
	"e2e.availability_min":   true,
	"chaos.edge-flap_s":      true,
	"chaos.fog-partition_s":  true,
	"chaos.gray-fail_s":      true,
	"chaos.noisy-neighbor_s": true,
	"chaos.planned-drain_s":  true,
	"chaos.split-brain_s":    true,
	"chaos.replans_delta":    true,
	"chaos.replans_full":     true,
	"chaos.mttr_p95_ms":      true,
	"chaos.self_share":       true,
}

// higherIsBetter lists the per-layer metrics where a larger value is the
// better one: availability, work served, and how much of a round the
// ledger explains. Every other per-layer metric is a cost.
var higherIsBetter = map[string]bool{
	"e2e.availability_min": true,
	"admission.admitted":   true,
	"tenant.dispatched":    true,
	"ledger.coverage":      true,
}

func betterOf(name string) string {
	if higherIsBetter[name] {
		return "higher"
	}
	return "lower"
}

// spanLayers are the benchmark-span layers whose self-time share is
// reported (<layer>.self_share above).
var spanLayers = []string{"sim", "mirto", "mapek", "continuum", "health", "checkpoint", "tenant", "plan", "chaos"}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
