package meetpoly

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"meetpoly/internal/telemetry"
)

// telemetryTestSpec is cacheTestSpec widened to every builtin kind, so
// the differential covers every kind's runner.
func telemetryTestSpec() SweepSpec {
	spec := cacheTestSpec()
	spec.Kinds = []string{"rendezvous", "baseline", "esst", "sgl", "certify"}
	spec.Budget = 40_000
	return spec
}

// TestSweepTelemetryInvisibleToResults is the tentpole's differential:
// the same campaign swept with telemetry off, telemetry on, and a cell
// tracer attached must produce byte-identical reports — recording is
// observation, never participation.
func TestSweepTelemetryInvisibleToResults(t *testing.T) {
	spec := telemetryTestSpec()
	ctx := context.Background()

	plain, err := NewEngine().Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetrics()
	instrumented, err := NewEngine(WithTelemetry(reg)).Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var spans int
	traced, err := NewEngine(WithCellTrace(func(CellTraceEvent) { spans++ })).Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	jp, ji, jt := mustJSON(t, plain), mustJSON(t, instrumented), mustJSON(t, traced)
	if !bytes.Equal(jp, ji) {
		t.Errorf("telemetry changed the sweep report:\noff: %s\non:  %s", jp, ji)
	}
	if !bytes.Equal(jp, jt) {
		t.Errorf("cell tracing changed the sweep report:\noff:    %s\ntraced: %s", jp, jt)
	}

	// And the instrumentation actually observed the sweep.
	total, err := CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if spans != 2*total {
		t.Errorf("tracer saw %d spans, want %d (begin+end per cell)", spans, 2*total)
	}
	snap := make(map[string]float64)
	var judged float64
	for _, p := range reg.Snapshot() {
		snap[p.Name]++
		if p.Name == "meetpoly_engine_cells_total" {
			judged += p.Value
		}
	}
	if judged != float64(total) {
		t.Errorf("meetpoly_engine_cells_total sums to %v, want %d", judged, total)
	}
	for _, name := range []string{
		"meetpoly_engine_cache_hits_total",
		"meetpoly_engine_cache_misses_total",
		"meetpoly_engine_cell_verdicts_total",
		"meetpoly_engine_cell_wall_ns",
		"meetpoly_engine_route_replays_total",
		"meetpoly_engine_pi_slack_millibits",
	} {
		if snap[name] == 0 {
			t.Errorf("series %s missing from the instrumented sweep's snapshot", name)
		}
	}
}

// TestCellTraceSpans pins the tracer contract: one begin and one end
// per cell, ends carry the wall time and verdict, and spans arrive
// serialized (the callback mutates shared state without locking).
func TestCellTraceSpans(t *testing.T) {
	spec := cacheTestSpec()
	open := make(map[int]bool)
	var ends int
	eng := NewEngine(WithCellTrace(func(ev CellTraceEvent) {
		switch ev.Phase {
		case "begin":
			if open[ev.Index] {
				t.Errorf("cell %d: second begin before end", ev.Index)
			}
			open[ev.Index] = true
			if ev.WallNs != 0 {
				t.Errorf("cell %d: begin event carries a wall time", ev.Index)
			}
		case "end":
			if !open[ev.Index] {
				t.Errorf("cell %d: end without begin", ev.Index)
			}
			delete(open, ev.Index)
			ends++
			if ev.WallNs < 0 {
				t.Errorf("cell %d: negative wall time %d", ev.Index, ev.WallNs)
			}
			if ev.ID == "" || ev.Seed == "" || ev.Kind == "" || ev.Graph == "" {
				t.Errorf("cell %d: end event missing identity: %+v", ev.Index, ev)
			}
		default:
			t.Errorf("unknown trace phase %q", ev.Phase)
		}
	}))
	rep, err := eng.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(open) != 0 {
		t.Errorf("%d cells ended the sweep with open spans", len(open))
	}
	if ends != rep.Cells {
		t.Errorf("saw %d end spans, want %d", ends, rep.Cells)
	}
}

// TestCellWallPerCell: a default-engine sweep of only rendezvous and
// baseline cells records one meetpoly_engine_cell_wall_ns observation
// per cell, so the histogram is populated under the default
// configuration for every kind.
func TestCellWallPerCell(t *testing.T) {
	spec := cacheTestSpec()
	spec.Kinds = []string{"rendezvous", "baseline"}
	total, err := CountSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetrics()
	if _, err := NewEngine(WithTelemetry(reg)).Sweep(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	var count uint64
	for _, p := range reg.Snapshot() {
		if p.Name == "meetpoly_engine_cell_wall_ns" {
			count += p.Count
		}
	}
	if count != uint64(total) {
		t.Errorf("meetpoly_engine_cell_wall_ns recorded %v observations, want one per cell (%d)", count, total)
	}
}

// TestEngineMetricsCacheConsistency pins the no-drift contract shared
// with /v1/stats: the cache series on /metrics decode the same packed
// word CacheStats reads.
func TestEngineMetricsCacheConsistency(t *testing.T) {
	reg := NewMetrics()
	eng := NewEngine(WithTelemetry(reg))
	if _, err := eng.Sweep(context.Background(), cacheTestSpec()); err != nil {
		t.Fatal(err)
	}
	stats := eng.CacheStats()
	var hits, misses float64
	for _, p := range reg.Snapshot() {
		switch p.Name {
		case "meetpoly_engine_cache_hits_total":
			hits = p.Value
		case "meetpoly_engine_cache_misses_total":
			misses = p.Value
		}
	}
	if hits != float64(stats.Hits) || misses != float64(stats.Misses) {
		t.Errorf("metrics (hits=%v misses=%v) drifted from CacheStats (%+v)", hits, misses, stats)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE meetpoly_engine_cache_hits_total counter") {
		t.Errorf("exposition missing the cache series:\n%s", b.String())
	}
}

// TestTelemetryNowMonotonic pins the clock the engine timings ride on.
func TestTelemetryNowMonotonic(t *testing.T) {
	a := telemetry.Now()
	b := telemetry.Now()
	if b < a {
		t.Errorf("telemetry clock went backwards: %d then %d", a, b)
	}
}
