package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"meetpoly"
)

// Passes of each kind in a traced run.
const (
	tracedColdEngines = 3 // NewEngine calls timed for engine.new_ms
	tracedPasses      = 3 // warm passes of each kind: untraced (the base of the overhead ratios) and traced
)

// perLayer lists the per-layer metrics in output order. A metric with a
// home is measured on that workload, whichever workload the traced run
// names; the rest describe the named workload. key, when set, is the
// name the measurement is recorded under.
var perLayer = []struct{ name, unit, home, key string }{
	{name: "trace.overhead_ratio", unit: "ratio"},
	{name: "trace.coverage", unit: "ratio"},
	{name: "engine.new_ms", unit: "ms"},
	{name: "engine.cold_misses", unit: "count"},
	{name: "engine.hit_ratio", unit: "ratio"},
	{name: "graph.build_us", unit: "us"},
	{name: "uxs.cover_ms", unit: "ms"},
	{name: "campaign.expand_ns_per_cell", unit: "ns"},
	{name: "campaign.judge_ns_per_cell", unit: "ns"},
	{name: "campaign.aggregate_ns_per_cell", unit: "ns"},
	{name: "campaign.report_encode_us", unit: "us"},
	{name: "telemetry.empty_series", unit: "count"},
	{name: "sched.ns_per_event.roundrobin", unit: "ns", home: "engine-long"},
	{name: "sched.ns_per_event.avoider", unit: "ns", home: "engine-long"},
	{name: "engine.us_per_cell.short", unit: "us", home: "service-short", key: "engine.us_per_cell"},
	{name: "serve.ndjson_bytes_per_cell", unit: "bytes", home: "service-short"},
	{name: "serve.ndjson_encode_ns_per_cell", unit: "ns", home: "service-short"},
	{name: "serve.checkpoint_record_ns_per_cell", unit: "ns", home: "service-short"},
	{name: "serve.checkpoint_flush_ms.p50", unit: "ms", home: "service-short"},
	{name: "serve.checkpoint_flush_ms.p99", unit: "ms", home: "service-short"},
	{name: "serve.checkpoint_recover_ms", unit: "ms", home: "service-short"},
	{name: "serve.first_line_ms", unit: "ms", home: "service-short"},
	{name: "serve.overhead_ratio", unit: "ratio", home: "service-short"},
	{name: "serve.resume_cells_per_s", unit: "cells/s", home: "service-short"},
	{name: "sgl.ns_per_event", unit: "ns", home: "fleet-mixed"},
	{name: "esst.ns_per_event", unit: "ns", home: "fleet-mixed"},
	{name: "sched.certify_us_per_cell", unit: "us", home: "fleet-mixed"},
	{name: "coord.lease_rtt_ms.p50", unit: "ms", home: "fleet-mixed"},
	{name: "coord.lease_rtt_ms.p99", unit: "ms", home: "fleet-mixed"},
	{name: "coord.complete_rtt_ms.p50", unit: "ms", home: "fleet-mixed"},
	{name: "coord.complete_rtt_ms.p99", unit: "ms", home: "fleet-mixed"},
	{name: "coord.leases", unit: "count", home: "fleet-mixed"},
	{name: "coord.waits", unit: "count", home: "fleet-mixed"},
	{name: "coord.heartbeats", unit: "count", home: "fleet-mixed"},
	{name: "coord.drain_tail_ms", unit: "ms", home: "fleet-mixed"},
	{name: "coord.wait_sleep_ms", unit: "ms", home: "fleet-mixed"},
	{name: "coord.overhead_ratio", unit: "ratio", home: "fleet-mixed"},
}

// runTraced measures every layer. Layers differ by workload — only
// service-short has a checkpointing server, only fleet-mixed has leases
// and SGL agents — so a traced run traces all three workloads at the
// named workload's seed and takes each metric from its home workload.
func runTraced(ctx context.Context, named workload, seed int64, work string, out io.Writer) (*result, error) {
	byWorkload := map[string]layerSet{}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		ls, t, err := traceWorkload(ctx, w, seed, filepath.Join(work, "trace-"+w.name), out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		byWorkload[w.name] = ls
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Correct = res.Correct && t.correct()
	}
	fmt.Fprintf(out, "perfbench traced run: per-layer metrics for %s seed=%d\n", named.name, seed)
	for _, m := range perLayer {
		from, key := named.name, m.name
		if m.home != "" {
			from = m.home
		}
		if m.key != "" {
			key = m.key
		}
		v, ok := byWorkload[from][key]
		if !ok {
			return nil, fmt.Errorf("%s measured no %s", from, key)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "  %-38s %-8s %-14.6g (%s)\n", m.name, m.unit, v, from)
	}
	return res, nil
}

// traceWorkload runs one workload's traced measurement: a cold pass,
// untraced and traced warm passes, the count cross-check against the
// program's exported counters, the decomposition pass and the graph
// probes. Spans go to .bench_build/perfbench/trace-<workload>-seed<n>.
func traceWorkload(ctx context.Context, w workload, seed int64, dir string, out io.Writer) (layerSet, *tally, error) {
	spec := w.spec(seedString(seed))
	total, err := meetpoly.CountSweep(spec)
	if err != nil {
		return nil, nil, err
	}
	ref, _, err := reference(ctx, w, seed)
	if err != nil {
		return nil, nil, err
	}
	t := &tally{ref: ref, total: total}
	ls := layerSet{}

	var newEngine []float64
	for i := 0; i < tracedColdEngines; i++ {
		t0 := time.Now()
		meetpoly.NewEngine(meetpoly.WithParallelism(2))
		newEngine = append(newEngine, ms(time.Since(t0)))
	}
	ls["engine.new_ms"] = median(newEngine)

	sys, err := w.open(spec, dir)
	if err != nil {
		return nil, nil, err
	}
	defer sys.close()
	// seen is what the benchmark counts from outside, to hold against
	// the program's exported counters.
	var seen struct{ cells, fresh, flushes, recovered int }
	record := func(pr passResult) {
		t.check(pr)
		seen.cells += pr.report.Cells
		if pr.resumeBytes != nil {
			seen.fresh += pr.streamedCells
			seen.flushes += (pr.streamedCells + serviceFlushEvery - 1) / serviceFlushEvery // RunShard's rule: every FlushEvery cells, and at close
			seen.recovered += pr.resumeCells
		}
	}
	cold, err := sys.pass(ctx, nil, noSpan)
	if err != nil {
		return nil, nil, err
	}
	record(cold)
	var hits, misses int64
	for _, e := range sys.engines() {
		cs := e.CacheStats()
		hits, misses = hits+cs.Hits, misses+cs.Misses
	}
	ls["engine.cold_misses"] = float64(misses)
	ls["engine.hit_ratio"] = float64(hits) / float64(hits+misses)

	tr := newTracer(fmt.Sprintf("%s/seed%d", w.name, seed))
	var (
		untraced, resume                        []float64
		traced, firstLine, drainTail, waitSleep []float64
		leaseRTT, completeRTT                   []time.Duration
		leases, waits, heartbeats               int
		mismatches                              []string
	)
	// Untraced and traced passes alternate, so that both see the same
	// machine: the host's memory bandwidth swings over seconds.
	for i := 0; i < tracedPasses; i++ {
		runtime.GC()
		pr, err := sys.pass(ctx, nil, noSpan)
		if err != nil {
			return nil, nil, err
		}
		record(pr)
		untraced = append(untraced, pr.wall.Seconds())
		if pr.resumeBytes != nil {
			resume = append(resume, float64(pr.resumeCells)/pr.resumeWall.Seconds())
		}

		runtime.GC()
		box := tr.begin("pass", noSpan)
		pr, err = sys.pass(ctx, tr, box)
		tr.end(box)
		if err != nil {
			return nil, nil, err
		}
		record(pr)
		traced = append(traced, pr.wall.Seconds())
		if pr.resumeBytes != nil {
			firstLine = append(firstLine, ms(pr.firstLine))
		}
		if ws := pr.wire; ws != nil {
			leaseRTT = append(leaseRTT, ws.leaseRTT...)
			completeRTT = append(completeRTT, ws.completeRTT...)
			leases += ws.leases
			waits += ws.waits
			heartbeats += ws.heartbeats
			tail := 0.0
			if !ws.firstWait.IsZero() {
				tail = ms(pr.doneAt.Sub(ws.firstWait))
			}
			drainTail = append(drainTail, tail)
			waitSleep = append(waitSleep, ms(ws.waitSleep))
			ex := pr.coordMetrics.sum
			mismatches = append(mismatches,
				compare("leases", ws.leases, ex["meetpoly_coord_leases_granted_total"]),
				compare("lease waits", ws.waits, ex["meetpoly_coord_lease_waits_total"]),
				compare("heartbeats", ws.heartbeats, ex["meetpoly_coord_heartbeats_total"]),
				compare("completes", ws.completes, ex["meetpoly_coord_completes_total"]),
				compare("cells accepted", pr.report.Cells, ex["meetpoly_coord_cells_accepted_total"]))
		}
	}
	ls["trace.overhead_ratio"] = median(traced) / median(untraced)

	// Cross-check the engines' and the server's exported counters
	// against what the benchmark counted, then list the series that
	// stayed empty.
	var empty []string
	switch s := sys.(type) {
	case *serviceSystem:
		ex, err := scrape(s.ln.url)
		if err != nil {
			return nil, nil, err
		}
		mismatches = append(mismatches,
			compare("engine cells", seen.fresh, ex.sum["meetpoly_engine_cells_total"]),
			compare("cells executed", seen.fresh, ex.sum["meetpoly_serve_cells_executed_total"]),
			compare("cells recovered", seen.recovered, ex.sum["meetpoly_serve_cells_recovered_total"]),
			compare("stream lines", seen.fresh+seen.recovered, ex.sum["meetpoly_serve_stream_lines_total"]),
			compare("checkpoint flushes", seen.flushes, ex.sum["meetpoly_serve_checkpoint_flushes_total"]))
		empty = ex.empty
	case *fleetSystem:
		cells := 0.0
		for i, reg := range s.regs {
			ex, err := registryExposition(reg)
			if err != nil {
				return nil, nil, err
			}
			cells += ex.sum["meetpoly_engine_cells_total"]
			for _, e := range ex.empty {
				empty = append(empty, fmt.Sprintf("w%d %s", i, e))
			}
		}
		mismatches = append(mismatches, compare("engine cells", seen.cells, cells))
	}
	ls["telemetry.empty_series"] = float64(len(empty))
	if len(mismatches) == 0 {
		fmt.Fprintf(out, "%s: no exported counters (in-process, no registry, as rvsweep runs)\n", w.name)
	} else {
		agree := 0
		for _, m := range mismatches {
			if m == "" {
				agree++
				continue
			}
			t.problem("cross-check: %s", m)
		}
		fmt.Fprintf(out, "%s: outside counts vs exported counters: %d agree, %d disagree\n", w.name, agree, len(mismatches)-agree)
	}
	if len(empty) > 0 {
		fmt.Fprintf(out, "%s: exported series still empty: %s\n", w.name, strings.Join(empty, ", "))
	}

	// In-process comparators for the service and fleet overheads.
	switch s := sys.(type) {
	case *serviceSystem:
		ls["serve.overhead_ratio"] = median(untraced) / sweepWall(ctx, s.eng, spec, false)
		ls["serve.resume_cells_per_s"] = median(resume)
		ls["serve.first_line_ms"] = median(firstLine)
	case *fleetSystem:
		ls["coord.overhead_ratio"] = median(untraced) / sweepWall(ctx, meetpoly.NewEngine(meetpoly.WithParallelism(2)), spec, true)
		ls["coord.lease_rtt_ms.p50"] = ms(percentile(leaseRTT, 0.5))
		ls["coord.lease_rtt_ms.p99"] = ms(percentile(leaseRTT, 0.99))
		ls["coord.complete_rtt_ms.p50"] = ms(percentile(completeRTT, 0.5))
		ls["coord.complete_rtt_ms.p99"] = ms(percentile(completeRTT, 0.99))
		ls["coord.leases"] = float64(leases) / tracedPasses
		ls["coord.waits"] = float64(waits) / tracedPasses
		ls["coord.heartbeats"] = float64(heartbeats) / tracedPasses
		ls["coord.drain_tail_ms"] = median(drainTail)
		ls["coord.wait_sleep_ms"] = median(waitSleep)
	}

	dls, err := decompose(ctx, sys.engines()[0], spec, ref, tr, dir)
	if err != nil {
		return nil, nil, err
	}
	gls, err := probeGraphs(spec, tr)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range []layerSet{dls, gls} {
		for k, v := range m {
			ls[k] = v
		}
	}

	layers, wall, self := tr.layers()
	ls["trace.coverage"] = float64(self) / float64(wall)
	fmt.Fprintf(out, "%s: traced wall %.3fms, layer self time %.3fms (coverage %.3f), tracing overhead %.3f\n",
		w.name, float64(wall)/1e6, float64(self)/1e6, ls["trace.coverage"], ls["trace.overhead_ratio"])
	fmt.Fprint(out, fmtLayers(layers))

	base := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d", w.name, seed))
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return nil, nil, err
	}
	summary, err := json.MarshalIndent(struct {
		Workload    string      `json:"workload"`
		Seed        int64       `json:"seed"`
		WallNs      int64       `json:"traced_wall_ns"`
		SelfNs      int64       `json:"layer_self_ns"`
		Layers      []layerTime `json:"layers"`
		Metrics     layerSet    `json:"metrics"`
		EmptySeries []string    `json:"empty_series"`
		Problems    []string    `json:"problems"`
	}{w.name, seed, wall, self, layers, ls, empty, t.problems}, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(base+".layers.json", append(summary, '\n'), 0o644); err != nil {
		return nil, nil, err
	}
	for _, p := range t.problems {
		fmt.Fprintf(out, "  problem: %s\n", p)
	}
	return ls, t, nil
}

// compare returns "" when the benchmark's outside count equals the
// program's exported counter, and a description otherwise.
func compare(what string, outside int, exported float64) string {
	if float64(outside) == exported {
		return ""
	}
	return fmt.Sprintf("%s: counted %d, exported %g", what, outside, exported)
}

// sweepWall returns the median wall time, in seconds, of in-process
// Engine.Sweep passes of spec, after one untimed warm-up pass when warm
// is set.
func sweepWall(ctx context.Context, eng *meetpoly.Engine, spec meetpoly.SweepSpec, warm bool) float64 {
	if warm {
		eng.Sweep(ctx, spec) //nolint:errcheck // the spec already ran clean
	}
	var walls []float64
	for i := 0; i < tracedPasses; i++ {
		runtime.GC()
		t0 := time.Now()
		eng.Sweep(ctx, spec) //nolint:errcheck // the spec already ran clean
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls)
}
