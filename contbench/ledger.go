package main

import (
	"fmt"
	"sort"
	"time"
)

// ledgerItem is one hot-path public call: its cost measured in isolation
// and the number of times the measured round made it.
type ledgerItem struct {
	name   string // <module>.<call>
	unitNs float64
	calls  float64
	// within names the item whose cost already includes this one; it is
	// shown but not added again.
	within string
}

// perCall times f in isolation: batches of calls sized to ~50 ms, five
// batches, median ns per call. f receives a running call index.
func perCall(f func(i int)) float64 {
	n, i := 1, 0
	for {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			f(i)
			i++
		}
		if el := time.Since(t0); el >= 50*time.Millisecond || n >= 1<<22 {
			break
		}
		n *= 2
	}
	var batches []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			f(i)
			i++
		}
		batches = append(batches, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(batches)
}

// setLedger attributes the measured wall time of a round to the ledger's
// calls (unit cost × calls) and records ledger.coverage, the attributed
// share of the measured time, plus a table of the attribution.
func (r *run) setLedger(items []ledgerItem, measured time.Duration) {
	var total float64
	for _, it := range items {
		if it.within == "" {
			total += it.unitNs * it.calls
		}
	}
	r.set("ledger.coverage", ratio(total, float64(measured.Nanoseconds())))
	sort.SliceStable(items, func(i, j int) bool {
		return items[i].unitNs*items[i].calls > items[j].unitNs*items[j].calls
	})
	r.note("layer ledger (isolated unit cost x calls observed; measured round %.1f ms):", float64(measured)/1e6)
	for _, it := range items {
		share := ratio(it.unitNs*it.calls, float64(measured.Nanoseconds()))
		name := it.name
		if it.within != "" {
			name = "(in " + it.within + ") " + name
		}
		r.note("  %-40s %12.0f ns x %10.0f calls = %10.3f ms (%5.1f%%)",
			name, it.unitNs, it.calls, it.unitNs*it.calls/1e6, 100*share)
	}
	r.note("  %-30s %s", "attributed / measured", fmt.Sprintf("%.3f", ratio(total, float64(measured.Nanoseconds()))))
}
