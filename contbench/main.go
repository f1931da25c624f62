// Command contbench is the continuum's end-to-end and per-layer
// benchmark. It drives the MYRTUS continuum from outside, through public
// calls only, on one of four workloads:
//
//	serve-steady    normal operation of the full self-healing serve stack
//	serve-overload  two tenants, one flooding its budget, quotas on
//	control-churn   planner, fencing and heartbeat work at edge-300
//	chaos-suite     every registered chaos scenario once
//
// Run it from the repository root:
//
//	go run ./contbench --workload serve-steady --seed 1 --seconds 20 --trace 0
//
// (or `bash contbench/run.sh ...`, which builds into .bench_build first).
// With --trace 0 the last line of standard output is a JSON object holding
// every end-to-end metric; with --trace 1 it holds every per-layer metric,
// taken from a separate traced run. A human-readable report, including the
// verdict of every output check, goes to standard error. The command exits
// non-zero when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// options are the command-line knobs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale shrinks every workload's deterministic round (tests use
	// small values); the benchmark always runs at 1.
	scale float64
	// spanDir receives the traced run's span log ("" = keep in memory).
	spanDir string
}

// workloads maps each workload name to its runner. Each runner builds its
// system, runs deterministic rounds until the time budget is spent, checks
// its outputs and fills in the run's metrics.
var workloads = map[string]func(*run) error{
	"serve-steady":   runSteady,
	"serve-overload": runOverload,
	"control-churn":  runChurn,
	"chaos-suite":    runChaosSuite,
}

// unbenchmarked names the workloads BENCHMARK.json leaves out, with the
// reason. A benchmarked workload must pass its output checks on every
// seed. chaos-suite does not: the program fails its RPO gate on some
// seeds (README.md, "Workloads"). It stays runnable, with its gate, and
// goes back into BENCHMARK.json once the program is fixed.
var unbenchmarked = map[string]string{
	"chaos-suite": "stateful fog-partition loses a committed state item on some seeds, so the RPO gate fails",
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "wall seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = traceFlag != 0
	o.scale = 1
	o.spanDir = filepath.Join(".bench_build", "spans")
	if _, ok := workloads[o.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "contbench: unknown workload %q (have %v)\n", o.workload, names)
		os.Exit(2)
	}
	// One process, at most as many threads running Go code as the machine
	// has CPUs: the simulation is single-threaded, the planner fans out.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}

	r, err := execute(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "contbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	r.report(os.Stderr)
	line, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "contbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.correct() {
		os.Exit(1)
	}
}

// execute runs one workload and returns the finished run.
func execute(o options) (*run, error) {
	r := newRun(o)
	if err := workloads[o.workload](r); err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return r, nil
}
