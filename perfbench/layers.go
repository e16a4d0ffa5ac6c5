package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"meetpoly"
	"meetpoly/internal/campaign"
	"meetpoly/internal/serve"
)

// layerSet maps per-layer metric names to values.
type layerSet map[string]float64

// decompose pushes a campaign's cells one by one through the public
// per-cell calls that a sweep's layers are made of — expansion, the
// per-cell runner (Engine.ReplayCellWithOracles with no oracles),
// oracle judging, aggregation, NDJSON encoding, checkpoint record, flush
// and recovery, report encoding — each call in its own span. The folded
// report must reproduce the reference digest. Cells run one at a time on
// the per-cell runner, not on the sweep's batched tier.
func decompose(ctx context.Context, eng *meetpoly.Engine, spec meetpoly.SweepSpec, ref string, tr *tracer, dir string) (layerSet, error) {
	box := tr.begin("decompose", noSpan)
	defer tr.end(box)

	var cells []meetpoly.SweepCell
	id := tr.begin("meetpoly.WalkSweep", box)
	err := meetpoly.WalkSweep(spec, func(c meetpoly.SweepCell) bool {
		cells = append(cells, c)
		return true
	})
	expand := tr.end(id)
	if err != nil {
		return nil, err
	}
	n := float64(len(cells))

	oracles := campaign.DefaultOracles(eng.BoundModel())
	agg := campaign.NewAggregator(spec, nil)
	cpDir := filepath.Join(dir, "decompose-checkpoint")
	id = tr.begin("serve.OpenCheckpoint", box)
	cp, err := serve.OpenCheckpoint(cpDir)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cp != nil {
			cp.Close() //nolint:errcheck // only on a path that already failed
		}
	}()

	type class struct {
		ns, steps int64
		cells     int
	}
	classes := map[string]*class{}
	classify := func(key string, ns time.Duration, steps int) {
		c := classes[key]
		if c == nil {
			c = &class{}
			classes[key] = c
		}
		c.ns += int64(ns)
		c.steps += int64(steps)
		c.cells++
	}
	var (
		judge, aggregate, encode, record time.Duration
		flushes                          []time.Duration
		ndjsonBytes                      int
		line                             bytes.Buffer
	)
	enc := json.NewEncoder(&line)
	for _, c := range cells {
		id = tr.begin("meetpoly.Engine.ReplayCellWithOracles", box)
		cr, err := eng.ReplayCellWithOracles(ctx, spec, c.Seed)
		d := tr.end(id)
		if err != nil {
			return nil, err
		}
		classify("all", d, cr.Outcome.Steps)
		classify("kind:"+c.Kind, d, cr.Outcome.Steps)
		if c.Kind == campaign.KindRendezvous || c.Kind == campaign.KindBaseline {
			classify("adversary:"+adversaryFamily(c.Adversary), d, cr.Outcome.Steps)
		}

		id = tr.begin("campaign.Oracle.Check", box)
		for _, o := range oracles {
			if err := o.Check(cr.Cell, cr.Outcome); err != nil {
				cr.Failures = append(cr.Failures, campaign.OracleFailure{Oracle: o.Name(), Err: err.Error()})
			}
		}
		judge += tr.end(id)

		id = tr.begin("campaign.Aggregator.Add", box)
		agg.Add(*cr)
		aggregate += tr.end(id)

		line.Reset()
		id = tr.begin("json.Encoder.Encode", box)
		err = enc.Encode(cr)
		encode += tr.end(id)
		if err != nil {
			return nil, err
		}
		ndjsonBytes += line.Len()

		id = tr.begin("serve.Checkpoint.Record", box)
		err = cp.Record(*cr)
		record += tr.end(id)
		if err != nil {
			return nil, err
		}
		if cp.Pending() >= serve.DefaultFlushEvery {
			id = tr.begin("serve.Checkpoint.Flush", box)
			err = cp.Flush()
			flushes = append(flushes, tr.end(id))
			if err != nil {
				return nil, err
			}
		}
	}
	id = tr.begin("serve.Checkpoint.Close", box)
	err = cp.Close()
	cp = nil
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("campaign.Aggregator.Report", box)
	rep := agg.Report()
	aggregate += tr.end(id)
	id = tr.begin("json.MarshalIndent", box)
	b, err := reportBytes(rep)
	encodeReport := tr.end(id)
	if err != nil {
		return nil, err
	}
	if d := digest(b); d != ref {
		return nil, fmt.Errorf("decomposition report digest %s, want %s", d, ref)
	}

	id = tr.begin("serve.OpenCheckpoint.recover", box)
	cp2, err := serve.OpenCheckpoint(cpDir)
	recovery := tr.end(id)
	if err != nil {
		return nil, err
	}
	recovered := len(cp2.Recovered())
	if err := cp2.Close(); err != nil {
		return nil, err
	}
	if recovered != len(cells) {
		return nil, fmt.Errorf("checkpoint recovered %d of %d cells", recovered, len(cells))
	}

	ls := layerSet{
		"campaign.expand_ns_per_cell":         float64(expand) / n,
		"campaign.judge_ns_per_cell":          float64(judge) / n,
		"campaign.aggregate_ns_per_cell":      float64(aggregate) / n,
		"campaign.report_encode_us":           float64(encodeReport) / 1e3,
		"serve.ndjson_bytes_per_cell":         float64(ndjsonBytes) / n,
		"serve.ndjson_encode_ns_per_cell":     float64(encode) / n,
		"serve.checkpoint_record_ns_per_cell": float64(record) / n,
		"serve.checkpoint_flush_ms.p50":       ms(percentile(flushes, 0.5)),
		"serve.checkpoint_flush_ms.p99":       ms(percentile(flushes, 0.99)),
		"serve.checkpoint_recover_ms":         ms(recovery),
	}
	perEvent := func(metric, key string) {
		if c := classes[key]; c != nil && c.steps > 0 {
			ls[metric] = float64(c.ns) / float64(c.steps)
		}
	}
	perCellUs := func(metric, key string) {
		if c := classes[key]; c != nil {
			ls[metric] = float64(c.ns) / float64(c.cells) / 1e3
		}
	}
	perEvent("sched.ns_per_event.roundrobin", "adversary:roundrobin")
	perEvent("sched.ns_per_event.avoider", "adversary:avoider")
	perEvent("sgl.ns_per_event", "kind:"+campaign.KindSGL)
	perEvent("esst.ns_per_event", "kind:"+campaign.KindESST)
	perCellUs("sched.certify_us_per_cell", "kind:"+campaign.KindCertify)
	perCellUs("engine.us_per_cell", "all")
	return ls, nil
}

// adversaryFamily names a cell's adversary family: "random:123" is
// "random", and the empty spec is the round-robin default.
func adversaryFamily(spec string) string {
	name, _, _ := strings.Cut(spec, ":")
	if name == "" {
		return "roundrobin"
	}
	return name
}

// probeGraphs times GraphSpec.Build on each unique graph of the spec,
// then EnsureFor of each on a fresh NewEnv — the graph-build and
// catalog-coverage work an engine's cold pass does once per graph.
func probeGraphs(spec meetpoly.SweepSpec, tr *tracer) (layerSet, error) {
	seen := map[meetpoly.GraphSpec]bool{}
	var specs []meetpoly.GraphSpec
	err := meetpoly.WalkSweep(spec, func(c meetpoly.SweepCell) bool {
		if gs := meetpoly.CellScenario(c).Graph; !seen[gs] {
			seen[gs] = true
			specs = append(specs, gs)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	var build time.Duration
	graphs := make([]*meetpoly.Graph, len(specs))
	box := tr.begin("probe.graph", noSpan)
	for i, gs := range specs {
		id := tr.begin("meetpoly.GraphSpec.Build", box)
		graphs[i], err = gs.Build()
		build += tr.end(id)
		if err != nil {
			tr.end(box)
			return nil, err
		}
	}
	tr.end(box)

	env := meetpoly.NewEnv(6, 1) // the engine's default catalog
	var cover time.Duration
	box = tr.begin("probe.uxs", noSpan)
	for _, g := range graphs {
		id := tr.begin("meetpoly.EnsureFor", box)
		meetpoly.EnsureFor(env, g)
		cover += tr.end(id)
	}
	tr.end(box)
	return layerSet{
		"graph.build_us": float64(build) / float64(len(specs)) / 1e3,
		"uxs.cover_ms":   ms(cover),
	}, nil
}
