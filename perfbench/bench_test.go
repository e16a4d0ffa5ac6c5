package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"

	"meetpoly"
)

var update = flag.Bool("update", false, "rewrite digests.json from in-process Engine.Sweep reports")

// TestDigests checks the committed default-seed digests against an
// in-process Engine.Sweep of each workload's campaign. With -update it
// rewrites digests.json instead.
func TestDigests(t *testing.T) {
	got := map[string]string{}
	for _, w := range workloads {
		rep, err := meetpoly.NewEngine(meetpoly.WithParallelism(2)).Sweep(context.Background(), w.spec(seedString(defaultSeed)))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%s: report not OK", w.name)
		}
		b, err := reportBytes(rep)
		if err != nil {
			t.Fatal(err)
		}
		got[w.name] = digest(b)
	}
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("digests.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		t.Fatal(err)
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: digest %s, committed %s", name, sum, want[name])
		}
	}
}

// The benchmark twins run one workload's warm pass per iteration at the
// default seed, so a regression can be profiled down to a function:
//
//	go test -run '^$' -bench EngineLong -benchtime 10x -cpuprofile cpu.out
func BenchmarkEngineLong(b *testing.B)   { benchWorkload(b, "engine-long") }
func BenchmarkServiceShort(b *testing.B) { benchWorkload(b, "service-short") }
func BenchmarkFleetMixed(b *testing.B)   { benchWorkload(b, "fleet-mixed") }

func benchWorkload(b *testing.B, name string) {
	w, _ := workloadByName(name)
	ctx := context.Background()
	ref, _, err := reference(ctx, w, defaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := w.open(w.spec(seedString(defaultSeed)), b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer sys.close()
	if _, err := sys.pass(ctx, nil, noSpan); err != nil { // the cold pass fills every cache
		b.Fatal(err)
	}
	var (
		cells, events int64
		wall          time.Duration
	)
	b.ResetTimer()
	for b.Loop() {
		pr, err := sys.pass(ctx, nil, noSpan)
		if err != nil {
			b.Fatal(err)
		}
		if digest(pr.bytes) != ref {
			b.Fatalf("report digest differs from the committed reference")
		}
		cells += int64(pr.report.Cells)
		events += pr.report.Events
		wall += pr.wall
	}
	b.ReportMetric(float64(cells)/wall.Seconds(), "cells/s")
	b.ReportMetric(float64(events)/wall.Seconds(), "events/s")
}
