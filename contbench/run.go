package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"myrtus/internal/sim"
)

// run is one benchmark invocation: its options, the span log of a traced
// run, the metric values, and the verdict of every output check.
type run struct {
	opts  options
	spans *spanLog // nil unless opts.trace
	vals  map[string]float64
	// checks are the output checks in the order they were made.
	checks []check
	// attempted / failed feed the result line; what counts as an
	// attempt and a failure is the workload's definition.
	attempted, failed int64
	// notes are extra report lines (top self-time layer, ledger rows).
	notes []string
	// devices is the size of the workload's continuum.
	devices int
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newRun(o options) *run {
	r := &run{opts: o, vals: map[string]float64{}}
	if o.trace {
		r.spans = newSpanLog()
		// A layer the workload does not exercise reads 0.
		for _, m := range perLayer {
			if r.reports(m.name) {
				r.vals[m.name] = 0
			}
		}
	}
	return r
}

// set records one metric value.
func (r *run) set(name string, v float64) { r.vals[name] = v }

// check records one output check.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// note adds a line to the human-readable report.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) correct() bool {
	if len(r.checks) == 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// setups builds the workload's system repeatedly — at least five times
// and for at least half a second — timing each build, and records the
// median as setup_s. It returns the last system built, which the timed
// region then uses.
func setups[T any](r *run, build func() (T, error)) (T, error) {
	var last T
	var secs []float64
	start := time.Now()
	for len(secs) < 5 || (time.Since(start) < 500*time.Millisecond && len(secs) < 200) {
		// Each build starts from a collected heap, so no build pays for
		// an earlier build's garbage.
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	r.set("setup_s", median(secs))
	return last, nil
}

// rounds fixes how many deterministic rounds a run makes. Each round is a
// fixed, seed-determined amount of work, and the count depends on
// --seconds only, never on how fast the rounds go, so every run of a seed
// does the same work.
type rounds struct {
	// warmup rounds run first, untimed: they fill the KPI histograms the
	// MAPE-K loops read, which makes early rounds several times faster
	// than steady state.
	warmup int
	// perSecond timed rounds per second of --seconds (at least min), set
	// so a run takes about --seconds on a 2-vCPU machine.
	perSecond float64
	min       int
}

// timedRounds runs the warm-up rounds, then the timed ones, numbering
// them 0, 1, ... across both. ops_per_s is the median of the timed
// rounds' rates (operations ÷ round wall time). Go runtime counters are
// read around the timed rounds only. prepare (may be nil) runs before
// every round and settled (may be nil) once after the last warm-up round
// (after round 0 when there is none), both outside the timing.
func (r *run) timedRounds(p rounds, prepare func(i int) error, round func(i int) (int64, error), settled func()) error {
	timed := max(p.min, int(math.Round(p.perSecond*r.opts.seconds)))
	var mallocs, bytes, gcs, pauseNs uint64
	var before, after runtime.MemStats
	var rates []float64
	var ops int64
	for i := 0; i < p.warmup+timed; i++ {
		if prepare != nil {
			if err := prepare(i); err != nil {
				return fmt.Errorf("round %d: %w", i, err)
			}
		}
		// Each round starts from a collected heap, so garbage from set-up
		// or from earlier rounds is not collected on its clock.
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		n, err := round(i)
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		if i >= p.warmup {
			ops += n
			rates = append(rates, float64(n)/wall.Seconds())
			mallocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
			gcs += uint64(after.NumGC - before.NumGC)
			pauseNs += after.PauseTotalNs - before.PauseTotalNs
		}
		if i == max(p.warmup, 1)-1 && settled != nil {
			settled()
		}
	}
	r.set("ops_per_s", median(rates))
	r.note("%d warm-up + %d timed rounds, ops/s per timed round %.4g", p.warmup, timed, rates)
	r.set("go.allocs_per_op", ratio(float64(mallocs), float64(ops)))
	r.set("go.bytes_per_op", ratio(float64(bytes), float64(ops)))
	r.set("go.gc_cycles", float64(gcs))
	r.set("go.gc_pause_ms", float64(pauseNs)/1e6)
	return nil
}

// liveHeap records heap_mb: the live heap after a forced collection,
// taken while the workload's system is still reachable, at a fixed point
// of the round sequence (after warm-up).
func (r *run) liveHeap(keep any) {
	// Twice: the first collection moves sync.Pool contents to the pools'
	// victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_mb", float64(ms.HeapAlloc)/1e6)
	runtime.KeepAlive(keep)
}

// finish validates that the run produced exactly the metrics its mode
// reports, and folds the span log into the per-layer self-time metrics.
func (r *run) finish() error {
	if r.spans != nil {
		r.spans.fold(r)
		if err := r.spans.write(r.opts); err != nil {
			return err
		}
	}
	var missing []string
	for _, name := range r.metricNames() {
		v, ok := r.vals[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	return nil
}

// reports tells whether this run's workload reports a per-layer metric.
func (r *run) reports(name string) bool {
	return !suiteOnly[name] || r.opts.workload == "chaos-suite"
}

// metricNames lists the metrics this run's mode reports.
func (r *run) metricNames() []string {
	var out []string
	if r.opts.trace {
		for _, m := range perLayer {
			if r.reports(m.name) {
				out = append(out, m.name)
			}
		}
		return out
	}
	for _, m := range endToEnd {
		out = append(out, m.name)
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *run) result() result {
	out := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, name := range r.metricNames() {
		out.Metrics[name] = metricValue{Value: r.vals[name], Unit: unitOf(name)}
	}
	return out
}

// report writes the human-readable summary: every reported metric with
// its unit, every output check with its verdict, and the notes.
func (r *run) report(w io.Writer) {
	mode := "end-to-end (tracing off)"
	if r.opts.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== contbench %s seed=%d seconds=%g: %s\n", r.opts.workload, r.opts.seed, r.opts.seconds, mode)
	if why, ok := unbenchmarked[r.opts.workload]; ok {
		fmt.Fprintf(w, "not in BENCHMARK.json: %s\n", why)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d\n", r.attempted, r.failed)
	names := r.metricNames()
	if !r.opts.trace {
		// The workload-specific end-to-end views this workload measured.
		for _, m := range perLayer {
			if _, ok := r.vals[m.name]; ok && strings.HasPrefix(m.name, "e2e.") {
				names = append(names, m.name)
			}
		}
	}
	for _, name := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", name, r.vals[name], unitOf(name))
	}
	for _, c := range r.checks {
		verdict := "PASS"
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %-28s %s  %s\n", c.name, verdict, c.detail)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
}

// arrivals draws one round's open-loop arrival times in [t0, t0+length):
// a Poisson process at rate per virtual second conditioned on its count,
// that is round(rate × length) uniform times in order. Fixing the count
// keeps every round's amount of work equal, so per-round rates compare.
func arrivals(rng *sim.RNG, t0, length sim.Time, rate float64) []sim.Time {
	n := int(math.Round(rate * length.Seconds()))
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = t0 + sim.Time(rng.Float64()*float64(length))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the middle of xs (mean of the two middles for even
// lengths); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
