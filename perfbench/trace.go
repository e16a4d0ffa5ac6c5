package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans whose parent is
// noSpan are containers (a traced pass, the decomposition pass, a probe);
// every other span is a layer span, named after the public call it
// brackets.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const noSpan = -1

// tracer records spans in memory; they are written out once the run
// ends. A nil *tracer records nothing, so untraced passes call the same
// code with tracing off.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Run: t.run, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == noSpan {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// layerTime is one layer's share of the traced wall.
type layerTime struct {
	Name   string `json:"name"`
	Spans  int    `json:"spans"`
	WallNs int64  `json:"wall_ns"`
	SelfNs int64  `json:"self_ns"`
}

// idleRetryAfter names the spans in which a fleet worker sleeps on a
// "wait" answer. They are subtracted from their parent's self time like
// any child, but are no layer's self time.
const idleRetryAfter = "idle.retry_after"

// layers computes each layer's self time: a span's duration minus the
// part of its interval that its child spans cover. It also returns the
// traced wall and the summed self time of the layer spans. The traced
// wall sums the container spans, counting a container whose children
// overlap (two fleet workers) once per child: the part of it no child
// covers plus each child's own duration. For sequential children that is
// the container's duration, so the coverage, self over wall, stays
// within [0, 1].
func (t *tracer) layers() (out []layerTime, wall, self int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	byName := map[string]*layerTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if s.Parent == noSpan {
			busy := s.End - s.Start - covered(t.spans, children[s.ID], s.Start, s.End)
			for _, k := range children[s.ID] {
				if c := t.spans[k]; c.End >= 0 {
					busy += min(c.End, s.End) - max(c.Start, s.Start)
				}
			}
			wall += busy
			continue
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		st := s.End - s.Start - covered(t.spans, children[s.ID], s.Start, s.End)
		lt.Spans++
		lt.WallNs += s.End - s.Start
		lt.SelfNs += st
		if s.Name != idleRetryAfter {
			self += st
		}
	}
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNs > out[j].SelfNs })
	return out, wall, self
}

// covered returns the length of the union of the child intervals,
// clipped to [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) int64 {
	var iv [][2]int64
	for _, k := range kids {
		c := spans[k]
		if c.End < 0 {
			continue
		}
		iv = append(iv, [2]int64{max(c.Start, lo), min(c.End, hi)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores the spans as JSON lines, one span a line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireStats is what a tracing transport counts at the HTTP boundary of
// one pass. Round-trip times run from the request being sent to its
// response body being consumed.
type wireStats struct {
	mu sync.Mutex

	leaseRTT    []time.Duration
	completeRTT []time.Duration
	leases      int
	waits       int
	heartbeats  int
	completes   int
	firstWait   time.Time
	// waitSleep sums the sleeps the "wait" answers tell workers to take.
	waitSleep time.Duration
}

// workerWaitFloor is coord.RunWorker's default WaitFloor: a worker
// sleeps the larger of it and a "wait" answer's retry_ms.
const workerWaitFloor = 10 * time.Millisecond

// tracedTransport wraps one client's HTTP transport: each round trip is
// a span under parent, and coordinator traffic feeds stats.
type tracedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent int
	stats  *wireStats

	// idle is the span open from this worker's last "wait" answer to its
	// next lease request or its end: the time it sleeps on Retry-After.
	idle int
}

func traceTransport(base http.RoundTripper, tr *tracer, parent int, stats *wireStats) *tracedTransport {
	return &tracedTransport{base: base, tr: tr, parent: parent, stats: stats, idle: noSpan}
}

// endIdle closes the idle span, if one is open.
func (t *tracedTransport) endIdle() {
	t.tr.end(t.idle)
	t.idle = noSpan
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := strings.TrimPrefix(req.URL.Path, "/v1/")
	if route == "lease" {
		t.endIdle()
	}
	id := t.tr.begin("http."+route, t.parent)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	if route == "lease" {
		// The lease answer is a few bytes: read it here to learn whether
		// it granted work, then hand the caller an identical body.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		rtt := t.tr.end(id)
		var lr struct {
			Status  string `json:"status"`
			RetryMs int64  `json:"retry_ms"`
		}
		json.Unmarshal(body, &lr) //nolint:errcheck // an undecodable answer counts as neither
		t.stats.mu.Lock()
		t.stats.leaseRTT = append(t.stats.leaseRTT, rtt)
		switch lr.Status {
		case "lease":
			t.stats.leases++
		case "wait":
			t.stats.waits++
			t.stats.waitSleep += max(time.Duration(lr.RetryMs)*time.Millisecond, workerWaitFloor)
			if t.stats.firstWait.IsZero() {
				t.stats.firstWait = time.Now()
			}
			t.idle = t.tr.begin(idleRetryAfter, t.parent)
		}
		t.stats.mu.Unlock()
		return resp, rerr
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		rtt := t.tr.end(id)
		if t.stats == nil || resp.StatusCode != http.StatusOK {
			return
		}
		t.stats.mu.Lock()
		defer t.stats.mu.Unlock()
		switch route {
		case "complete":
			t.stats.completes++
			t.stats.completeRTT = append(t.stats.completeRTT, rtt)
		case "heartbeat":
			t.stats.heartbeats++
		}
	}}
	return resp, nil
}

// spanBody ends a round trip's span when its body is drained or closed,
// so a streamed response is timed to its last byte, not its headers.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// percentile returns the q-quantile (0..1) of ds by nearest rank.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s)) + 0.5)
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fmtLayers(ls []layerTime) string {
	var b strings.Builder
	for _, l := range ls {
		fmt.Fprintf(&b, "  %-44s spans=%-6d self=%10.3fms wall=%10.3fms\n", l.Name, l.Spans,
			float64(l.SelfNs)/1e6, float64(l.WallNs)/1e6)
	}
	return b.String()
}
