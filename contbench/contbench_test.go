package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// smallScale shrinks each workload's deterministic round for tests; the
// chaos suite runs its registered scenarios at their own size.
var smallScale = map[string]float64{
	"serve-steady":   0.1,
	"serve-overload": 0.1,
	"control-churn":  0.2,
	"chaos-suite":    1,
}

func small(t *testing.T, workload string, seed uint64, trace bool) *run {
	t.Helper()
	r, err := execute(options{workload: workload, seed: seed, seconds: 0.01, trace: trace, scale: smallScale[workload]})
	if err != nil {
		t.Fatalf("%s seed %d trace=%v: %v", workload, seed, trace, err)
	}
	for _, c := range r.checks {
		if !c.ok {
			t.Errorf("%s seed %d trace=%v: check %s failed: %s", workload, seed, trace, c.name, c.detail)
		}
	}
	return r
}

// TestWorkloadsDeterministic runs every workload's traced run twice on
// one seed and once on a held-out seed: every output check must pass, and
// every metric marked exact (counts, virtual time) must repeat exactly.
// Two untraced runs of the seed must agree on the serve workloads'
// virtual-time latency.
func TestWorkloadsDeterministic(t *testing.T) {
	const seed, heldOut = 7, 11
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			a := small(t, w, seed, true)
			b := small(t, w, seed, true)
			for _, m := range perLayer {
				if m.exact && a.vals[m.name] != b.vals[m.name] {
					t.Errorf("%s: %s = %v then %v on the same seed", w, m.name, a.vals[m.name], b.vals[m.name])
				}
			}
			if strings.HasPrefix(w, "serve-") {
				c := small(t, w, seed, false)
				d := small(t, w, seed, false)
				for _, name := range []string{"lat_p50_ms", "lat_p99_ms"} {
					if c.vals[name] != d.vals[name] || c.vals[name] <= 0 {
						t.Errorf("%s: %s = %v then %v on the same seed", w, name, c.vals[name], d.vals[name])
					}
				}
			}
			if w != "chaos-suite" {
				small(t, w, heldOut, true)
			}
		})
	}
}

// TestChaosSuiteGateReportsKnownRPOLoss pins a known program defect the
// chaos-suite gate catches: on seed 2 the stateful fog-partition
// scenario loses one committed state item (RPO 1), as
// `continuum-sim chaos fog-partition -seed 2 -stateful` also reports.
// The gate must fail loudly on it, so the benchmark's chaos-suite runs of
// such seeds report correct=false and exit non-zero, and BENCHMARK.json
// leaves chaos-suite out (unbenchmarked). Once the defect is fixed this
// test fails; delete it then, drop chaos-suite from unbenchmarked and
// list it and its suiteOnly metrics in BENCHMARK.json again.
func TestChaosSuiteGateReportsKnownRPOLoss(t *testing.T) {
	r, err := execute(options{workload: "chaos-suite", seed: 2, seconds: 0.01, trace: false, scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.checks {
		if c.name == "scenario-gates-hold" {
			if c.ok || !strings.Contains(c.detail, "fog-partition:RPO 1 items lost") {
				t.Fatalf("scenario gate = %v %q, want the fog-partition RPO loss", c.ok, c.detail)
			}
			return
		}
	}
	t.Fatal("no scenario-gates-hold check")
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric and
// workload tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists exactly the workloads the program runs, less
	// the unbenchmarked ones, and the per-layer metrics they report.
	var listed, benchmarked []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	for _, w := range workloadNames() {
		if _, out := unbenchmarked[w]; !out {
			benchmarked = append(benchmarked, w)
		}
	}
	if got, want := strings.Join(listed, ","), strings.Join(benchmarked, ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	reported := perLayer
	if _, out := unbenchmarked["chaos-suite"]; out {
		reported = nil
		for _, m := range perLayer {
			if !suiteOnly[m.name] {
				reported = append(reported, m)
			}
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound == nil || *j.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, j, m)
		}
	}
	if len(b.PerLayer) != len(reported) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(b.PerLayer), len(reported))
	}
	for i, m := range reported {
		j := b.PerLayer[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != betterOf(m.name) || j.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, program has %s %s %s", i, j, m.name, m.unit, betterOf(m.name))
		}
	}
}
