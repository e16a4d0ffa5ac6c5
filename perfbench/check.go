package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"meetpoly"
)

// defaultSeed is the seed whose report digests are committed in
// digests.json.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// reference returns the digest every report of w at seed must match,
// and where it came from: the committed digest for the default seed, an
// in-process Engine.Sweep on a fresh engine for any other seed.
func reference(ctx context.Context, w workload, seed int64) (sum, source string, err error) {
	if seed == defaultSeed {
		var committed map[string]string
		if err := json.Unmarshal(digestsJSON, &committed); err != nil {
			return "", "", fmt.Errorf("digests.json: %w", err)
		}
		sum, ok := committed[w.name]
		if !ok {
			return "", "", fmt.Errorf("digests.json has no digest for %s", w.name)
		}
		return sum, "committed digests.json", nil
	}
	rep, err := meetpoly.NewEngine(meetpoly.WithParallelism(2)).Sweep(ctx, w.spec(seedString(seed)))
	if err != nil {
		return "", "", err
	}
	b, err := reportBytes(rep)
	if err != nil {
		return "", "", err
	}
	return digest(b), "in-process Engine.Sweep", nil
}

func seedString(seed int64) string { return strconv.FormatInt(seed, 10) }

// tally counts attempted and failed cells over every pass of a run. A
// cell fails if it is canceled, missing from the report, or fails an
// oracle; every cell of a pass whose report bytes differ from the
// reference fails.
type tally struct {
	ref       string
	total     int
	attempted int
	failed    int
	problems  []string
}

func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// passFailed counts a pass that produced no report at all.
func (t *tally) passFailed(err error) {
	t.attempted += t.total
	t.failed += t.total
	t.problem("pass failed: %v", err)
}

func (t *tally) check(pr passResult) {
	t.attempted += t.total
	t.failed += t.reportFailures(pr.report, pr.bytes)
	if pr.resumeBytes == nil {
		return
	}
	// The service's re-request: the same report, with no cell executed.
	t.attempted += t.total
	bad := 0
	if d := digest(pr.resumeBytes); d != t.ref {
		t.problem("re-request report digest %s, want %s", d, t.ref)
		bad = t.total
	}
	if pr.resumeCells != t.total {
		t.problem("re-request returned %d of %d cells", pr.resumeCells, t.total)
		bad = t.total
	}
	if pr.resumeExecuted != 0 {
		t.problem("re-request executed %d cells; the checkpoint should have served all", pr.resumeExecuted)
		bad = t.total
	}
	if pr.freshExecuted != int64(t.total) {
		t.problem("first request executed %d cells, want %d", pr.freshExecuted, t.total)
		bad = t.total
	}
	t.failed += bad
}

func (t *tally) reportFailures(rep *meetpoly.SweepReport, b []byte) int {
	if d := digest(b); d != t.ref {
		t.problem("report digest %s, want %s", d, t.ref)
		return t.total
	}
	n := (t.total - rep.Cells) + rep.Fail + rep.Canc
	if !rep.OK() {
		t.problem("report not OK: %d oracle failures, %d canceled", rep.Fail, rep.Canc)
	}
	return min(n, t.total)
}

func (t *tally) correct() bool { return t.failed == 0 && len(t.problems) == 0 }

// exposition is a parsed Prometheus text exposition.
type exposition struct {
	// sum totals each sample name over its label sets.
	sum map[string]float64
	// empty lists the counter series still at 0 and the histogram series
	// that observed nothing. Gauges are levels, so 0 is not "empty".
	empty []string
}

func parseExposition(r io.Reader) (*exposition, error) {
	ex := &exposition{sum: map[string]float64{}}
	types := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, typ, ok := strings.Cut(rest, " "); ok {
				types[name] = typ
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("exposition line %q has no value", line)
		}
		series := line[:i]
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		name, _, _ := strings.Cut(series, "{")
		ex.sum[name] += v
		if v != 0 {
			continue
		}
		switch {
		case types[name] == "counter":
			ex.empty = append(ex.empty, series)
		case strings.HasSuffix(name, "_count") && types[strings.TrimSuffix(name, "_count")] == "histogram":
			ex.empty = append(ex.empty, strings.Replace(series, "_count", "", 1))
		}
	}
	return ex, sc.Err()
}

// registryExposition renders a registry the way its /metrics endpoint
// would, for registries that no HTTP endpoint serves (fleet workers).
func registryExposition(reg *meetpoly.Metrics) (*exposition, error) {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseExposition(&b)
}
