// Command perfbench is meetpoly's campaign benchmark. It runs one
// workload — a sweep campaign driven through one of the three ways users
// run campaigns (in-process Engine.Sweep, the rvserved service, an
// rvcoord fleet) — checks every report against a reference, and prints
// the end-to-end metrics, or with --trace 1 the per-layer metrics of a
// separate traced run. The last line of standard output is one JSON
// object; README.md describes it.
//
//	go -C perfbench build -o /tmp/perfbench . && /tmp/perfbench --workload engine-long --seed 1 --seconds 20 --trace 0
//
// The benchmark drives only public entry points and times layers from
// outside, around calls into each module's public functions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: engine-long, service-short or fleet-mixed")
	seed := fs.Int64("seed", defaultSeed, "workload seed; it becomes the campaign spec's seed string")
	seconds := fs.Int("seconds", 20, "how long the warm passes are measured")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload engine-long|service-short|fleet-mixed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	work := filepath.Join(outDir, "work", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(work)

	ctx := context.Background()
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(ctx, w, *seed, work, stdout)
	} else {
		res, err = runMeasured(ctx, w, *seed, *seconds, work, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// samples collects one run's measurements by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(v), median(v)
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
