// Package coord is the campaign coordinator: the fault-tolerance layer
// that turns a fleet of unreliable rvserved workers into one reliable
// sweep. One coordinator owns a single campaign's index space as a
// campaign.IndexSet of unfinished cells and hands out bounded,
// time-limited shard leases over HTTP. Workers pull a lease, execute
// exactly its ranges through serve.RunShard, stream the results back,
// and heartbeat while they work. A worker that dies — crash, kill -9,
// network partition — simply stops heartbeating; its lease expires and
// the cells return to the pool for reassignment.
//
// Reassignment is safe by construction, not by protocol care: cells
// are pure functions of their seed strings, campaign.Aggregator
// dedupes by cell index (a cell executed by both the dead worker and
// its replacement folds once), and a worker's checkpoint recovery
// trusts only sealed ranges. The coordinator therefore never needs to
// know whether a dead worker "really" finished anything — whatever
// result bytes arrive, from live or stale leases, fold idempotently,
// and the campaign is done exactly when the done-set covers [0, total).
//
// Protocol (all request/response bodies JSON unless noted):
//
//	GET  /v1/spec               the campaign spec workers must run
//	POST /v1/lease?worker=name  acquire work: {status:"lease"|"wait"|"done", ...}
//	POST /v1/heartbeat?lease=ID extend a lease; 410 once it has expired
//	POST /v1/complete?lease=ID  NDJSON cell results; accepted even stale
//	GET  /v1/status             progress counters
//	GET  /v1/report             final report; 409 + Retry-After until done
//	GET  /healthz               200 ok (with the build version)
//	GET  /metrics               Prometheus text exposition
package coord

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"meetpoly"
	"meetpoly/internal/buildinfo"
	"meetpoly/internal/campaign"
	"meetpoly/internal/telemetry/logx"
)

// Config configures a Coordinator.
type Config struct {
	// Spec is the one campaign this coordinator drives.
	Spec meetpoly.SweepSpec

	// LeaseCells bounds how many cells one lease grants; <= 0 means
	// DefaultLeaseCells. Small leases spread reassignment cost, large
	// leases amortize HTTP round-trips.
	LeaseCells int

	// LeaseTTL is how long a lease lives without a heartbeat; <= 0
	// means DefaultLeaseTTL. A worker heartbeats at TTL/3, so one lost
	// heartbeat does not kill a healthy lease, while a dead worker's
	// cells return to the pool within one TTL.
	LeaseTTL time.Duration

	// RetryAfter is the Retry-After hint (in the wait response and the
	// 409 on a premature report fetch); <= 0 means DefaultRetryAfter.
	RetryAfter time.Duration

	// Clock is the time source, injectable so tests expire leases
	// without sleeping. Nil means time.Now.
	Clock func() time.Time

	// Metrics receives the coordinator's lease-lifecycle series and
	// pool-state gauges, and backs the /metrics endpoint. Nil means a
	// private registry (so /metrics always works).
	Metrics *meetpoly.Metrics

	// Log receives lease-lifecycle events (grants, expiries, stale
	// completes). Nil logs nothing.
	Log *logx.Logger
}

// Coordinator tuning defaults.
const (
	DefaultLeaseCells = 16
	DefaultLeaseTTL   = 10 * time.Second
	DefaultRetryAfter = time.Second
)

// lease is one outstanding grant: a set of cell intervals owned by one
// worker until expiry.
type lease struct {
	id      string
	worker  string
	set     campaign.IndexSet
	expires time.Time
}

// Coordinator owns one campaign's progress state. Safe for concurrent
// use by any number of workers.
type Coordinator struct {
	cfg   Config
	total int
	m     *coordMetrics
	log   *logx.Logger

	mu     sync.Mutex
	done   campaign.IndexSet // cells whose results have been folded
	leases map[string]*lease
	agg    *campaign.Aggregator
	nextID int
	report []byte
}

// New validates the spec and builds a coordinator over its expansion.
func New(cfg Config) (*Coordinator, error) {
	total, err := meetpoly.CountSweep(cfg.Spec)
	if err != nil {
		return nil, err
	}
	if cfg.LeaseCells <= 0 {
		cfg.LeaseCells = DefaultLeaseCells
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Metrics == nil {
		cfg.Metrics = meetpoly.NewMetrics()
	}
	c := &Coordinator{
		cfg:    cfg,
		total:  total,
		log:    cfg.Log,
		leases: make(map[string]*lease),
		agg:    campaign.NewAggregator(cfg.Spec, nil),
	}
	c.m = newCoordMetrics(c, cfg.Metrics)
	return c, nil
}

// Done reports whether every cell's result has been folded.
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done.Len() == c.total
}

// expireLocked reclaims every lease past its deadline. The reclaimed
// cells need no bookkeeping: the free pool is recomputed as the gaps
// of done ∪ live-leases, so dropping the lease IS the reassignment.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.After(l.expires) {
			delete(c.leases, id)
			c.m.expired.Inc()
			c.log.Warn("lease expired",
				logx.F("lease", id), logx.F("worker", l.worker),
				logx.F("cells", int64(l.set.Len())))
		}
	}
}

// LeaseResponse is the body of POST /v1/lease.
type LeaseResponse struct {
	// Status is "lease" (Ranges granted), "wait" (everything is leased
	// out but the campaign is unfinished — retry after RetryMs), or
	// "done" (no work will ever be granted again).
	Status  string              `json:"status"`
	Lease   string              `json:"lease,omitempty"`
	Ranges  []campaign.Interval `json:"ranges,omitempty"`
	TTLMs   int64               `json:"ttl_ms,omitempty"`
	RetryMs int64               `json:"retry_ms,omitempty"`
}

// Lease grants up to LeaseCells unfinished, unleased cells to worker.
func (c *Coordinator) Lease(worker string) LeaseResponse {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	if c.done.Len() == c.total {
		return LeaseResponse{Status: "done"}
	}

	// Free pool = gaps of (done ∪ every live lease). Grant the first
	// gap(s), clipped to the lease budget.
	var taken campaign.IndexSet
	taken.AddSet(&c.done)
	for _, l := range c.leases {
		taken.AddSet(&l.set)
	}
	var grant campaign.IndexSet
	budget := c.cfg.LeaseCells
	for _, gap := range taken.Gaps(0, c.total) {
		if budget <= 0 {
			break
		}
		hi := min(gap.Hi, gap.Lo+budget)
		grant.AddRange(gap.Lo, hi)
		budget -= hi - gap.Lo
	}
	if grant.Len() == 0 {
		c.m.waits.Inc()
		return LeaseResponse{Status: "wait", RetryMs: c.cfg.RetryAfter.Milliseconds()}
	}

	c.nextID++
	l := &lease{
		id:      fmt.Sprintf("L%d", c.nextID),
		worker:  worker,
		set:     grant,
		expires: now.Add(c.cfg.LeaseTTL),
	}
	c.leases[l.id] = l
	c.m.granted.Inc()
	c.log.Debug("lease granted",
		logx.F("lease", l.id), logx.F("worker", worker),
		logx.F("cells", int64(grant.Len())))
	return LeaseResponse{
		Status: "lease",
		Lease:  l.id,
		Ranges: grant.Ranges(),
		TTLMs:  c.cfg.LeaseTTL.Milliseconds(),
	}
}

// Heartbeat extends a lease to now+TTL. False means the lease is gone
// (expired and reclaimed, or never existed): the worker should abandon
// the run — anything it still sends via Complete folds harmlessly.
func (c *Coordinator) Heartbeat(id string) bool {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	l, ok := c.leases[id]
	if !ok {
		c.m.heartbeatMisses.Inc()
		return false
	}
	l.expires = now.Add(c.cfg.LeaseTTL)
	c.m.heartbeats.Inc()
	return true
}

// Complete folds a batch of cell results, marking each result's own
// index done. The lease ID is advisory: results from an expired or
// unknown lease are accepted anyway — the work is real whoever did it,
// and the aggregator's duplicate guard makes a double fold a no-op.
// Canceled cells are rejected as a protocol error: a canceled outcome
// is not a result, and folding it would wedge the campaign (the
// aggregator's duplicate guard would then drop the real result).
func (c *Coordinator) Complete(id string, results []campaign.CellResult) (accepted int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cr := range results {
		if cr.Outcome.Canceled {
			return accepted, fmt.Errorf("coord: lease %s: canceled cell %d submitted as a result", id, cr.Cell.Index)
		}
		if cr.Cell.Index < 0 || cr.Cell.Index >= c.total {
			return accepted, fmt.Errorf("coord: lease %s: cell index %d outside [0, %d)", id, cr.Cell.Index, c.total)
		}
		c.agg.Add(cr)
		c.done.Add(cr.Cell.Index)
		accepted++
	}
	c.m.completes.Inc()
	c.m.cellsAccepted.Add(uint64(accepted))
	if _, live := c.leases[id]; !live {
		// The work is real whoever did it: a reassigned lease's original
		// worker reporting late still folds (the duplicate guard makes a
		// double fold a no-op), but the staleness is worth counting.
		c.m.staleCompletes.Inc()
		c.log.Info("stale complete accepted",
			logx.F("lease", id), logx.F("cells", int64(accepted)))
	} else {
		c.log.Debug("lease completed",
			logx.F("lease", id), logx.F("cells", int64(accepted)))
	}
	// Whatever the lease still owed returns to the pool; a partial
	// completion (worker drained mid-lease) re-leases just the rest.
	delete(c.leases, id)
	return accepted, nil
}

// Report renders the final report bytes — the exact bytes a
// single-process `rvsweep -json` run of the same spec prints — once
// the campaign is complete. Before that it returns false.
func (c *Coordinator) Report() ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done.Len() != c.total {
		return nil, false
	}
	if c.report == nil {
		out, err := json.MarshalIndent(c.agg.Report(), "", "  ")
		if err != nil {
			// Report marshaling is infallible for our types; keep the
			// invariant visible rather than silently caching nothing.
			panic(fmt.Sprintf("coord: marshaling final report: %v", err))
		}
		c.report = append(out, '\n')
	}
	return c.report, true
}

// Status is the body of GET /v1/status.
type Status struct {
	Total   int      `json:"total"`
	Done    int      `json:"done"`
	Leased  int      `json:"leased"`
	Workers []string `json:"workers"`
	Granted int64    `json:"leases_granted"`
	Expired int64    `json:"leases_expired"`
}

// StatusNow snapshots progress.
func (c *Coordinator) StatusNow() Status {
	now := c.cfg.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	st := Status{
		Total:   c.total,
		Done:    c.done.Len(),
		Granted: int64(c.m.granted.Value()),
		Expired: int64(c.m.expired.Value()),
	}
	seen := map[string]bool{}
	for _, l := range c.leases {
		st.Leased += l.set.Len()
		if !seen[l.worker] {
			seen[l.worker] = true
			st.Workers = append(st.Workers, l.worker)
		}
	}
	sort.Strings(st.Workers)
	return st
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/spec", func(w http.ResponseWriter, r *http.Request) {
		out, err := meetpoly.SweepSpecJSON(c.cfg.Spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(out, '\n'))
	})
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		worker := r.URL.Query().Get("worker")
		if worker == "" {
			worker = "anonymous"
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.Lease(worker))
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if !c.Heartbeat(r.URL.Query().Get("lease")) {
			http.Error(w, "lease expired or unknown", http.StatusGone)
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		// No lease grants more than LeaseCells cells, so a longer body is
		// refused whole before any of it is folded (or read further).
		var results []campaign.CellResult
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			if len(results) == c.cfg.LeaseCells {
				http.Error(w, fmt.Sprintf("more than %d result lines: no lease grants that many cells", c.cfg.LeaseCells),
					http.StatusRequestEntityTooLarge)
				return
			}
			var cr campaign.CellResult
			if err := json.Unmarshal(line, &cr); err != nil {
				http.Error(w, fmt.Sprintf("bad result line: %v", err), http.StatusBadRequest)
				return
			}
			results = append(results, cr)
		}
		if err := sc.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n, err := c.Complete(r.URL.Query().Get("lease"), results)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"accepted\": %d}\n", n)
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.StatusNow())
	})
	mux.HandleFunc("/v1/report", func(w http.ResponseWriter, r *http.Request) {
		out, ok := c.Report()
		if !ok {
			st := c.StatusNow()
			w.Header().Set("Retry-After", strconv.Itoa(int(max(c.cfg.RetryAfter/time.Second, 1))))
			http.Error(w, fmt.Sprintf("campaign incomplete: %d/%d cells done", st.Done, st.Total), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok %s %s\n", buildinfo.Version, buildinfo.Revision())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.cfg.Metrics.WritePrometheus(w) //nolint:errcheck // best-effort over HTTP
	})
	return mux
}
