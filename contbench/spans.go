package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one benchmark-recorded interval around a call into the program.
// Parent indexes the enclosing span in the log (-1 for none). The layer
// is the name's prefix before the first dot, a module of the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// spanLog keeps every span in memory until the run ends. The benchmark is
// single-threaded, so nesting follows the call stack.
type spanLog struct {
	t0    time.Time
	spans []span
	stack []int32
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its handle for end. A nil log records
// nothing, so untraced runs pay one nil check per call site.
func (l *spanLog) begin(name string) int32 {
	if l == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.t0)), Parent: parent})
	l.stack = append(l.stack, id)
	return id
}

// end closes the span begin returned.
func (l *spanLog) end(id int32) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = int64(time.Since(l.t0))
	l.stack = l.stack[:len(l.stack)-1]
}

// nameStat aggregates the spans of one name.
type nameStat struct {
	count       int64
	total, self time.Duration
}

// stats folds the log per span name. A span's self time is its duration
// minus the time its direct children cover.
func (l *spanLog) stats() map[string]*nameStat {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*nameStat{}
	for i, s := range l.spans {
		st := out[s.Name]
		if st == nil {
			st = &nameStat{}
			out[s.Name] = st
		}
		st.count++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// fold records each span layer's share of the self time and prints the
// per-name table plus the top self-time layer.
func (l *spanLog) fold(r *run) {
	byName := l.stats()
	var all time.Duration
	layers := map[string]time.Duration{}
	for name, st := range byName {
		all += st.self
		layers[layerOf(name)] += st.self
	}
	for _, layer := range spanLayers {
		r.set(layer+".self_share", ratio(float64(layers[layer]), float64(all)))
	}
	for _, t := range spanTimings {
		if st := byName[t.span]; st != nil {
			r.set(t.metric, float64(st.total)/float64(st.count)/t.unitNs)
		}
	}
	if st := byName["sim.run"]; st != nil {
		r.set("sim.run_self_ms", float64(st.self)/float64(st.count)/1e6)
	}
	if st := byName["continuum.heartbeat"]; st != nil && r.devices > 0 {
		r.set("continuum.heartbeat_us_per_device", float64(st.total)/float64(st.count)/1e3/float64(r.devices))
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].self > byName[names[j]].self })
	r.note("benchmark spans (self time = duration minus children):")
	for _, n := range names {
		st := byName[n]
		r.note("  %-26s calls=%-8d total=%10.3fms self=%10.3fms (%5.1f%%)", n, st.count,
			float64(st.total)/1e6, float64(st.self)/1e6, 100*ratio(float64(st.self), float64(all)))
	}
	top, topSelf := "", time.Duration(-1)
	for layer, d := range layers {
		if d > topSelf || (d == topSelf && layer < top) {
			top, topSelf = layer, d
		}
	}
	r.note("top self-time layer: %s (%.1f%% of span self time)", top, 100*ratio(float64(topSelf), float64(all)))
}

// spanTimings maps per-layer timing metrics to the benchmark span whose mean
// duration they report, in units of unitNs nanoseconds.
var spanTimings = []struct {
	metric, span string
	unitNs       float64
}{
	{"mapek.iterate_us", "mapek.iterate", 1e3},
	{"mirto.submit_us", "mirto.submit", 1e3},
	{"health.tick_us", "health.tick", 1e3},
	{"checkpoint.tick_us", "checkpoint.tick", 1e3},
	{"tenant.submit_us", "tenant.submit", 1e3},
	{"plan.plan_us", "plan.plan", 1e3},
	{"plan.execute_us", "plan.execute", 1e3},
	{"plan.register_us", "plan.register", 1e3},
	{"plan.delta_us", "plan.delta", 1e3},
	{"continuum.repair_ms", "continuum.repair", 1e6},
	{"chaos.edge-flap_s", "chaos.edge-flap", 1e9},
	{"chaos.fog-partition_s", "chaos.fog-partition", 1e9},
	{"chaos.gray-fail_s", "chaos.gray-fail", 1e9},
	{"chaos.noisy-neighbor_s", "chaos.noisy-neighbor", 1e9},
	{"chaos.planned-drain_s", "chaos.planned-drain", 1e9},
	{"chaos.split-brain_s", "chaos.split-brain", 1e9},
}

// write stores the span log as one JSON file under .bench_build/spans.
func (l *spanLog) write(o options) error {
	if o.spanDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.spanDir, 0o755); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	path := filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	return nil
}
