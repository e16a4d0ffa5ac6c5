package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"meetpoly"
)

// Set-up is measured this many times per run, each on a freshly built
// system, and reported as the median.
const coldPasses = 9

// At least this many warm passes are measured, however short --seconds.
const minWarmPasses = 3

// endToEnd lists the end-to-end metrics in output order.
var endToEnd = []struct{ name, unit string }{
	{"cells_per_s", "cells/s"},
	{"events_per_s", "events/s"},
	{"setup_s", "s"},
	{"allocs_per_cell", "allocs"},
	{"retained_heap_mib", "MiB"},
}

// runMeasured is the untraced run: coldPasses cold passes give setup_s,
// then warm passes on the last-built system run until seconds have
// passed since the first set-up began.
func runMeasured(ctx context.Context, w workload, seed int64, seconds int, work string, out io.Writer) (*result, error) {
	spec := w.spec(seedString(seed))
	total, err := meetpoly.CountSweep(spec)
	if err != nil {
		return nil, err
	}
	ref, source, err := reference(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	t := &tally{ref: ref, total: total}
	s := samples{}

	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var sys system
	for i := 0; i < coldPasses; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		t0 := time.Now()
		sys, err = w.open(spec, filepath.Join(work, fmt.Sprintf("cold%d", i)))
		if err != nil {
			return nil, err
		}
		built := time.Since(t0)
		pr, err := sys.pass(ctx, nil, noSpan)
		if err != nil {
			t.passFailed(err)
			continue
		}
		// Set-up ends when the first campaign's report is back; the
		// service's re-request is not part of it.
		s.add("setup_s", (built + pr.wall).Seconds())
		t.check(pr)
	}
	defer sys.close()

	for n := 0; n < minWarmPasses || time.Now().Before(deadline); n++ {
		runtime.GC()
		pr, err := sys.pass(ctx, nil, noSpan)
		if err != nil {
			t.passFailed(err)
			continue
		}
		runtime.GC()
		var heap runtime.MemStats
		runtime.ReadMemStats(&heap)
		t.check(pr)
		cells := float64(pr.report.Cells)
		s.add("cells_per_s", cells/pr.wall.Seconds())
		s.add("events_per_s", float64(pr.report.Events)/pr.wall.Seconds())
		s.add("allocs_per_cell", float64(pr.mallocs)/cells)
		s.add("retained_heap_mib", float64(heap.HeapInuse)/(1<<20))
		if pr.resumeBytes != nil {
			s.add("resume_cells_per_s", float64(pr.resumeCells)/pr.resumeWall.Seconds())
		}
	}

	fmt.Fprintf(out, "perfbench %s seed=%d cells=%d reference=%s (%s)\n", w.name, seed, total, ref[:16], source)
	res := &result{Correct: t.correct(), Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		v := s[m.name]
		if len(v) == 0 {
			return nil, fmt.Errorf("no %s sample: every pass failed (%v)", m.name, t.problems)
		}
		res.Metrics[m.name] = metric{Value: median(v), Unit: m.unit}
		q1, q3 := quartiles(v)
		fmt.Fprintf(out, "  %-20s %-9s median=%-14.6g q1=%-14.6g q3=%-14.6g n=%d\n", m.name, m.unit, median(v), q1, q3, len(v))
	}
	if v := s["resume_cells_per_s"]; len(v) > 0 {
		q1, q3 := quartiles(v)
		fmt.Fprintf(out, "  %-20s %-9s median=%-14.6g q1=%-14.6g q3=%-14.6g n=%d (re-request served from the checkpoint)\n",
			"resume_cells_per_s", "cells/s", median(v), q1, q3, len(v))
	}
	fmt.Fprintf(out, "  attempted=%d failed=%d failed_ratio=%g\n", t.attempted, t.failed, float64(t.failed)/float64(t.attempted))
	for _, p := range t.problems {
		fmt.Fprintf(out, "  problem: %s\n", p)
	}
	return res, nil
}
