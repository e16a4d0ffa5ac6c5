package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"meetpoly"
	"meetpoly/internal/serve"
	"meetpoly/internal/serve/client"
	"meetpoly/internal/serve/coord"
)

// workload is one campaign and the path it takes through the system.
type workload struct {
	name string
	spec func(seed string) meetpoly.SweepSpec
	// open builds the system cold: engines, and the server or
	// coordinator machinery around them. dir is the workload's private
	// scratch directory.
	open func(spec meetpoly.SweepSpec, dir string) (system, error)
}

// system is a built workload path. pass runs the campaign once; with a
// non-nil tracer it records spans under parent.
type system interface {
	pass(ctx context.Context, tr *tracer, parent int) (passResult, error)
	// engines returns the engines the path executes cells on.
	engines() []*meetpoly.Engine
	close()
}

// passResult is one campaign pass as the user sees it.
type passResult struct {
	report *meetpoly.SweepReport
	bytes  []byte        // the report as rvsweep -json prints it
	wall   time.Duration // the user's clock, as each workload defines it
	// mallocs is the runtime.MemStats.Mallocs delta over the campaign
	// the wall clock times (for the fleet, until the workers exit).
	mallocs uint64

	// Service only: the identical re-request served from the checkpoint.
	resumeBytes    []byte
	resumeCells    int
	resumeWall     time.Duration
	freshExecuted  int64 // meetpoly_serve_cells_executed_total delta of the first request
	resumeExecuted int64 // the same delta over the re-request: must be 0
	streamedCells  int   // NDJSON cell lines the client received on the first request
	firstLine      time.Duration

	// Fleet only: what the coordinator exported for this pass, and what
	// a tracing transport counted at the wire.
	coordMetrics *exposition
	wire         *wireStats
	doneAt       time.Time
}

var workloads = []workload{
	{
		name: "engine-long",
		spec: engineLongSpec,
		open: openEngine,
	},
	{
		name: "service-short",
		spec: serviceShortSpec,
		open: openService,
	},
	{
		name: "fleet-mixed",
		spec: fleetMixedSpec,
		open: openFleet,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func axes(kind string, sizes ...int) meetpoly.SweepGraphAxis {
	return meetpoly.SweepGraphAxis{Kind: kind, Sizes: sizes}
}

func engineLongSpec(seed string) meetpoly.SweepSpec {
	return meetpoly.SweepSpec{
		Name: "perfbench-engine-long", Seed: seed,
		Kinds:      []string{"rendezvous", "baseline"},
		Graphs:     []meetpoly.SweepGraphAxis{axes("path", 4, 5, 6), axes("ring", 4, 5, 6), axes("star", 5, 6), axes("clique", 4, 5)},
		StartPairs: 4, LabelPairs: 4,
		Adversaries: []string{"roundrobin", "avoider", "random"},
		Budget:      200000,
	}
}

func serviceShortSpec(seed string) meetpoly.SweepSpec {
	return meetpoly.SweepSpec{
		Name: "perfbench-service-short", Seed: seed,
		Kinds: []string{"rendezvous", "baseline"},
		Graphs: []meetpoly.SweepGraphAxis{axes("path", 3, 4, 5), axes("ring", 3, 4, 5), axes("star", 3, 4, 5),
			axes("clique", 3, 4, 5), axes("bintree", 3, 4, 5)},
		StartPairs: 7, LabelPairs: 7,
		Adversaries: []string{"roundrobin", "random"},
		Budget:      2000,
	}
}

func fleetMixedSpec(seed string) meetpoly.SweepSpec {
	return meetpoly.SweepSpec{
		Name: "perfbench-fleet-mixed", Seed: seed,
		Kinds: []string{"rendezvous", "baseline", "esst", "sgl", "certify"},
		Graphs: []meetpoly.SweepGraphAxis{axes("path", 3, 4, 5), axes("ring", 4, 5), axes("star", 5),
			axes("clique", 4), axes("bintree", 5)},
		StartPairs: 3, LabelPairs: 3,
		Adversaries: []string{"roundrobin", "random", "avoider"},
		Budget:      20000, Moves: 200,
	}
}

// reportBytes renders a report exactly as rvsweep -json and the
// coordinator's /v1/report do.
func reportBytes(rep *meetpoly.SweepReport) ([]byte, error) {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// mallocs reads runtime.MemStats.Mallocs. It stops the world, so it is
// read outside the timed windows.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// --- engine-long: in-process Engine.Sweep -------------------------------

type engineSystem struct {
	eng  *meetpoly.Engine
	spec meetpoly.SweepSpec
}

func openEngine(spec meetpoly.SweepSpec, _ string) (system, error) {
	return &engineSystem{eng: meetpoly.NewEngine(meetpoly.WithParallelism(2)), spec: spec}, nil
}

func (s *engineSystem) pass(ctx context.Context, tr *tracer, parent int) (passResult, error) {
	m0 := mallocs()
	id := tr.begin("meetpoly.Engine.Sweep", parent)
	t0 := time.Now()
	rep, err := s.eng.Sweep(ctx, s.spec)
	wall := time.Since(t0)
	tr.end(id)
	m1 := mallocs()
	if err != nil {
		return passResult{}, err
	}
	b, err := reportBytes(rep)
	return passResult{report: rep, bytes: b, wall: wall, mallocs: m1 - m0}, err
}

func (s *engineSystem) engines() []*meetpoly.Engine { return []*meetpoly.Engine{s.eng} }
func (s *engineSystem) close()                      {}

// --- loopback HTTP ------------------------------------------------------

// listener serves h on a loopback port until stop.
type listener struct {
	url string
	srv *http.Server
	wg  sync.WaitGroup
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	}()
	return l, nil
}

// stop waits for in-flight requests, then closes the listener and every
// connection.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	l.wg.Wait()
}

// scrape fetches a Prometheus text exposition and sums each family's
// series.
func scrape(url string) (*exposition, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: %s", url, resp.Status)
	}
	return parseExposition(resp.Body)
}

// --- service-short: client.Client -> serve.Server -----------------------

// serviceFlushEvery is the service's checkpoint flush interval. rvserved
// defaults to serve.DefaultFlushEvery (32), but every flush fsyncs, and
// fsync latency on a shared virtual disk swings with other machines'
// I/O: at 32 the fsyncs took about 45% of a pass and the pass wall
// followed them (correlation 0.93), so cells_per_s measured the disk. At
// 512 every cell is still recorded and a pass flushes six times.
const serviceFlushEvery = 512

type serviceSystem struct {
	eng  *meetpoly.Engine
	ln   *listener
	base http.RoundTripper
	root string
	spec meetpoly.SweepSpec
}

func openService(spec meetpoly.SweepSpec, dir string) (system, error) {
	// One registry for engine and service, as rvserved has.
	reg := meetpoly.NewMetrics()
	eng := meetpoly.NewEngine(meetpoly.WithParallelism(2), meetpoly.WithTelemetry(reg))
	root := filepath.Join(dir, "checkpoints")
	srv := serve.New(serve.Config{Engine: eng, CheckpointRoot: root, FlushEvery: serviceFlushEvery, Metrics: reg})
	ln, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &serviceSystem{eng: eng, ln: ln, root: root, spec: spec,
		base: &http.Transport{MaxConnsPerHost: 1}}, nil
}

func (s *serviceSystem) executed() (int64, error) {
	m, err := scrape(s.ln.url)
	if err != nil {
		return 0, err
	}
	return int64(m.sum["meetpoly_serve_cells_executed_total"]), nil
}

func (s *serviceSystem) pass(ctx context.Context, tr *tracer, parent int) (passResult, error) {
	// A fresh checkpoint root: the first request executes every cell.
	if err := os.RemoveAll(s.root); err != nil {
		return passResult{}, err
	}
	exec0, err := s.executed()
	if err != nil {
		return passResult{}, err
	}
	var rt http.RoundTripper = s.base
	id := tr.begin("client.Client.Sweep", parent)
	if tr != nil {
		rt = traceTransport(s.base, tr, id, nil)
	}
	cl := client.New(client.Config{BaseURL: s.ln.url, HTTP: &http.Client{Transport: rt}})
	var pr passResult
	m0 := mallocs()
	t0 := time.Now()
	rep, err := cl.Sweep(ctx, s.spec, func(meetpoly.SweepCellResult) bool {
		if pr.streamedCells == 0 {
			pr.firstLine = time.Since(t0)
		}
		pr.streamedCells++
		return true
	})
	pr.wall = time.Since(t0)
	tr.end(id)
	pr.mallocs = mallocs() - m0
	if err != nil {
		return passResult{}, err
	}
	pr.report = rep
	if pr.bytes, err = reportBytes(rep); err != nil {
		return passResult{}, err
	}
	exec1, err := s.executed()
	if err != nil {
		return passResult{}, err
	}

	// The identical re-request: every cell is recovered from the
	// checkpoint the first request left behind.
	id = tr.begin("client.Client.Sweep.resume", parent)
	if tr != nil {
		rt = traceTransport(s.base, tr, id, nil)
	}
	cl = client.New(client.Config{BaseURL: s.ln.url, HTTP: &http.Client{Transport: rt}})
	t1 := time.Now()
	rep2, err := cl.Sweep(ctx, s.spec, nil)
	pr.resumeWall = time.Since(t1)
	tr.end(id)
	if err != nil {
		return passResult{}, err
	}
	pr.resumeCells = rep2.Cells
	if pr.resumeBytes, err = reportBytes(rep2); err != nil {
		return passResult{}, err
	}
	exec2, err := s.executed()
	if err != nil {
		return passResult{}, err
	}
	pr.freshExecuted, pr.resumeExecuted = exec1-exec0, exec2-exec1
	return pr, nil
}

func (s *serviceSystem) engines() []*meetpoly.Engine { return []*meetpoly.Engine{s.eng} }
func (s *serviceSystem) close()                      { s.ln.stop() }

// --- fleet-mixed: coord.Coordinator + two coord.RunWorker ----------------

type fleetSystem struct {
	engs [2]*meetpoly.Engine
	regs [2]*meetpoly.Metrics
	dir  string
	spec meetpoly.SweepSpec
}

func openFleet(spec meetpoly.SweepSpec, dir string) (system, error) {
	s := &fleetSystem{dir: filepath.Join(dir, "fleet"), spec: spec}
	for i := range s.engs {
		// Each worker is its own rvserved process in a real fleet: its
		// own engine and registry.
		s.regs[i] = meetpoly.NewMetrics()
		s.engs[i] = meetpoly.NewEngine(meetpoly.WithParallelism(1), meetpoly.WithTelemetry(s.regs[i]))
	}
	return s, nil
}

func (s *fleetSystem) pass(ctx context.Context, tr *tracer, parent int) (passResult, error) {
	// Fresh private checkpoint directories: every leased cell executes.
	if err := os.RemoveAll(s.dir); err != nil {
		return passResult{}, err
	}
	var (
		pr     passResult
		once   sync.Once
		doneCh = make(chan struct{})
		sl     = newSleepers(ctx, len(s.engs))
	)
	defer sl.cancelAll()
	m0 := mallocs()
	t0 := time.Now()
	c, err := coord.New(coord.Config{Spec: s.spec, Metrics: meetpoly.NewMetrics()})
	if err != nil {
		return passResult{}, err
	}
	inner := c.Handler()
	ln, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		if r.URL.Path == "/v1/complete" && c.Done() {
			once.Do(func() {
				pr.doneAt = time.Now()
				pr.wall = pr.doneAt.Sub(t0)
				close(doneCh)
				sl.setDone()
			})
		}
	}))
	if err != nil {
		return passResult{}, err
	}
	defer ln.stop()

	if tr != nil {
		pr.wire = &wireStats{}
	}
	errs := make([]error, len(s.engs))
	var wg sync.WaitGroup
	for i := range s.engs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := tr.begin(fmt.Sprintf("coord.RunWorker.w%d", i), parent)
			defer tr.end(id)
			var rt http.RoundTripper = &http.Transport{}
			if tr != nil {
				tt := traceTransport(rt, tr, id, pr.wire)
				defer tt.endIdle()
				rt = tt
			}
			rt = &workerTransport{base: rt, sl: sl, i: i}
			errs[i] = coord.RunWorker(sl.ctx[i], coord.WorkerConfig{
				Coordinator: ln.url,
				Engine:      s.engs[i],
				Name:        fmt.Sprintf("w%d", i),
				Dir:         filepath.Join(s.dir, fmt.Sprintf("w%d", i)),
				FlushEvery:  serve.DefaultFlushEvery,
				HTTP:        &http.Client{Transport: rt},
			})
		}()
	}
	exited := make(chan struct{})
	go func() {
		wg.Wait()
		close(exited)
	}()
	// The report is complete at Done(). sl cancels the workers asleep on
	// a Retry-After then; the others read their last answer and end.
	select {
	case <-doneCh:
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			sl.cancelAll()
			<-exited
			return passResult{}, errors.New("fleet workers still running 10s after the campaign was done")
		}
	case <-exited:
	}
	pr.mallocs = mallocs() - m0
	select {
	case <-doneCh:
	default:
		return passResult{}, fmt.Errorf("fleet ended before the campaign was done: %w", errors.Join(errs...))
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return passResult{}, err
		}
	}
	out, ok := c.Report()
	if !ok {
		return passResult{}, errors.New("coordinator done but has no report")
	}
	pr.bytes = out
	if pr.report, err = parseReport(out); err != nil {
		return passResult{}, err
	}
	if tr != nil {
		if pr.coordMetrics, err = scrape(ln.url); err != nil {
			return passResult{}, err
		}
	}
	return pr, nil
}

// sleepers ends a fleet pass's workers once the campaign is done,
// without cutting a round trip: a worker asleep on a "wait" answer is
// canceled at Done(), or as soon as it reads such an answer after
// Done(); any other worker reads its last answer, "done", and returns.
// The counts taken at the wire thus stay exact.
type sleepers struct {
	ctx    []context.Context
	cancel []context.CancelFunc

	mu     sync.Mutex
	done   bool
	asleep []bool
}

func newSleepers(ctx context.Context, n int) *sleepers {
	sl := &sleepers{ctx: make([]context.Context, n), cancel: make([]context.CancelFunc, n), asleep: make([]bool, n)}
	for i := range n {
		sl.ctx[i], sl.cancel[i] = context.WithCancel(ctx)
	}
	return sl
}

func (sl *sleepers) setDone() {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.done = true
	for i, a := range sl.asleep {
		if a {
			sl.cancel[i]()
		}
	}
}

func (sl *sleepers) sleeping(i int, asleep bool) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.asleep[i] = asleep
	if asleep && sl.done {
		sl.cancel[i]()
	}
}

func (sl *sleepers) cancelAll() {
	for _, c := range sl.cancel {
		c()
	}
}

// workerTransport tells sleepers when worker i is asleep: from a "wait"
// answer to its lease request until its next lease request.
type workerTransport struct {
	base http.RoundTripper
	sl   *sleepers
	i    int
}

func (t *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/lease" {
		return t.base.RoundTrip(req)
	}
	t.sl.sleeping(t.i, false)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	// The answer is a few bytes: read it, then hand the caller an
	// identical body.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var lr struct {
		Status string `json:"status"`
	}
	if json.Unmarshal(body, &lr) == nil && lr.Status == "wait" {
		t.sl.sleeping(t.i, true)
	}
	return resp, nil
}

func (s *fleetSystem) engines() []*meetpoly.Engine { return s.engs[:] }
func (s *fleetSystem) close()                      {}

func parseReport(b []byte) (*meetpoly.SweepReport, error) {
	var rep meetpoly.SweepReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("decoding report: %w", err)
	}
	return &rep, nil
}
