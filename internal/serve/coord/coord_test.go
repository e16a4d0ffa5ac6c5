package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"meetpoly"
	"meetpoly/internal/campaign"
	"meetpoly/internal/faultinject"
)

// coordSpec mirrors the serve package's test campaign: 48 cells over 3
// unique graphs — small enough for milliseconds, fragmented enough
// that leases, kills and resumes all leave real seams to cross.
func coordSpec() meetpoly.SweepSpec {
	return meetpoly.SweepSpec{
		Name:  "serve",
		Seed:  "serve-v1",
		Kinds: []string{"rendezvous", "esst"},
		Graphs: []meetpoly.SweepGraphAxis{
			{Kind: "path", Sizes: []int{3, 4}},
			{Kind: "ring", Sizes: []int{4}},
		},
		StartPairs:  2,
		LabelPairs:  2,
		Adversaries: []string{"", "avoider"},
		Budget:      3000,
		Moves:       60,
	}
}

func newCoordEngine() *meetpoly.Engine {
	return meetpoly.NewEngine(meetpoly.WithMaxN(6), meetpoly.WithSeed(1))
}

func referenceReport(t *testing.T) []byte {
	t.Helper()
	rep, err := newCoordEngine().Sweep(context.Background(), coordSpec())
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestLeaseLifecycle drives the coordinator core with a fake clock:
// grant, heartbeat extension, expiry reclamation, re-grant of the
// reclaimed cells, stale-lease completion, and the report gate.
func TestLeaseLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c, err := New(Config{Spec: coordSpec(), LeaseCells: 16, LeaseTTL: 10 * time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	total := c.total

	l1 := c.Lease("w1")
	if l1.Status != "lease" || len(l1.Ranges) != 1 || l1.Ranges[0] != (campaign.Interval{Lo: 0, Hi: 16}) {
		t.Fatalf("first lease %+v, want [0,16)", l1)
	}
	l2 := c.Lease("w2")
	if l2.Status != "lease" || l2.Ranges[0] != (campaign.Interval{Lo: 16, Hi: 32}) {
		t.Fatalf("second lease %+v, want [16,32)", l2)
	}

	// Heartbeats keep l1 alive across what would otherwise be expiry.
	now = now.Add(8 * time.Second)
	if !c.Heartbeat(l1.Lease) {
		t.Fatal("heartbeat on a live lease refused")
	}
	now = now.Add(8 * time.Second) // l2 (never heartbeaten) is now dead, l1 alive
	l3 := c.Lease("w3")
	if l3.Status != "lease" || l3.Ranges[0] != (campaign.Interval{Lo: 16, Hi: 32}) {
		t.Fatalf("post-expiry lease %+v, want the reclaimed [16,32)", l3)
	}
	if c.Heartbeat(l2.Lease) {
		t.Fatal("heartbeat on an expired lease succeeded")
	}
	if st := c.StatusNow(); st.Expired != 1 {
		t.Fatalf("status reports %d expired leases, want 1", st.Expired)
	}

	// The dead worker finished its work anyway (it just couldn't
	// heartbeat): its stale completion must be accepted, and the same
	// cells arriving again from w3 must fold as no-ops.
	results := func(lo, hi int) []campaign.CellResult {
		var rs []campaign.CellResult
		for i := lo; i < hi; i++ {
			rs = append(rs, campaign.CellResult{
				Cell:    campaign.Cell{Index: i, ID: "synth", Seed: campaign.CellSeed("synth", i)},
				Outcome: campaign.Outcome{Met: true, Cost: i},
			})
		}
		return rs
	}
	if n, err := c.Complete(l2.Lease, results(16, 32)); err != nil || n != 16 {
		t.Fatalf("stale completion: n=%d err=%v", n, err)
	}
	if n, err := c.Complete(l3.Lease, results(16, 32)); err != nil || n != 16 {
		t.Fatalf("duplicate completion: n=%d err=%v", n, err)
	}
	if c.done.Len() != 16 {
		t.Fatalf("done=%d after duplicate folds, want 16", c.done.Len())
	}

	// Canceled outcomes are protocol errors, never folded.
	canceled := []campaign.CellResult{{
		Cell:    campaign.Cell{Index: 0, ID: "synth", Seed: campaign.CellSeed("synth", 0)},
		Outcome: campaign.Outcome{Canceled: true},
	}}
	if _, err := c.Complete(l1.Lease, canceled); err == nil {
		t.Fatal("canceled cell accepted as a result")
	}
	if c.done.Contains(0) {
		t.Fatal("canceled cell marked done")
	}

	if _, ok := c.Report(); ok {
		t.Fatal("report rendered before the campaign finished")
	}
	if n, err := c.Complete(l1.Lease, results(0, 16)); err != nil || n != 16 {
		t.Fatalf("completing l1: n=%d err=%v", n, err)
	}
	if n, err := c.Complete("nonsense", results(32, total)); err != nil || n != total-32 {
		t.Fatalf("completing remainder under an unknown lease: n=%d err=%v", n, err)
	}
	if !c.Done() {
		t.Fatal("campaign not done after all cells folded")
	}
	if lr := c.Lease("w4"); lr.Status != "done" {
		t.Fatalf("lease after completion %+v, want done", lr)
	}
	if _, ok := c.Report(); !ok {
		t.Fatal("report still gated after completion")
	}
}

// TestLeaseWait: with every unfinished cell leased out, the next
// worker is told to wait, not given overlapping work.
func TestLeaseWait(t *testing.T) {
	c, err := New(Config{Spec: coordSpec(), LeaseCells: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if lr := c.Lease("w1"); lr.Status != "lease" {
		t.Fatalf("first lease %+v", lr)
	}
	if lr := c.Lease("w2"); lr.Status != "wait" || lr.RetryMs <= 0 {
		t.Fatalf("second lease %+v, want wait with a retry hint", lr)
	}
}

// TestChaosFleet is the acceptance differential test: a coordinator
// and a worker fleet under injected faults — one worker killed after a
// flush, one dying on a torn (short) checkpoint write, one on an fsync
// error — completes the campaign through lease expiry, reassignment
// and checkpoint resume, and the merged report is byte-identical to an
// uninterrupted single-process run.
func TestChaosFleet(t *testing.T) {
	spec := coordSpec()
	want := referenceReport(t)

	c, err := New(Config{
		Spec:       spec,
		LeaseCells: 8,
		LeaseTTL:   300 * time.Millisecond,
		RetryAfter: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	root := t.TempDir()
	worker := func(name, chaos string) error {
		var inj *faultinject.Injector
		if chaos != "" {
			inj = faultinject.MustNew(chaos)
		}
		return RunWorker(context.Background(), WorkerConfig{
			Coordinator: ts.URL,
			Engine:      newCoordEngine(),
			Name:        name,
			Dir:         filepath.Join(root, name),
			FlushEvery:  4,
			Faults:      inj,
		})
	}

	// Wave 1: every worker dies its own death. kill=1 is the in-process
	// kill -9 after the first durable flush; short-write=1 tears the
	// first results append and poisons the checkpoint; sync-err=1 fails
	// the first fsync. None of them completes its lease.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, w := range []struct{ name, chaos string }{
		{"w-killed", "kill=1"},
		{"w-torn", "short-write=1"},
		{"w-fsync", "sync-err=1"},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = worker(w.name, w.chaos)
		}()
	}
	wg.Wait()
	for i, wantErr := range []error{faultinject.ErrKilled, faultinject.ErrWrite, faultinject.ErrSync} {
		if !errors.Is(errs[i], wantErr) {
			t.Fatalf("wave-1 worker %d died with %v, want %v", i, errs[i], wantErr)
		}
	}
	if c.Done() {
		t.Fatal("campaign complete although every worker died mid-lease")
	}

	// Wave 2: the same workers restart clean on their own checkpoint
	// directories (the torn/poisoned logs recover by truncation, sealed
	// cells replay) and drain the pool — waiting out wave 1's leases
	// via the coordinator's wait/expiry path, no manual nudge.
	for i, name := range []string{"w-killed", "w-torn", "w-fsync"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = worker(name, "")
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("wave-2 worker %d failed: %v", i, err)
		}
	}

	st := c.StatusNow()
	if st.Done != st.Total {
		t.Fatalf("status %d/%d done after wave 2", st.Done, st.Total)
	}
	if st.Expired == 0 {
		t.Fatal("no lease ever expired — the faults did not exercise reassignment")
	}

	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fleet report diverges from the uninterrupted single-process run")
	}
}

// TestReportRetryAfter: fetching the report before completion is a 409
// carrying the Retry-After hint.
func TestReportRetryAfter(t *testing.T) {
	c, err := New(Config{Spec: coordSpec(), RetryAfter: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("premature report: code=%d Retry-After=%q, want 409 with hint 2",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestCompleteBodyCap: a complete carrying more result lines than one
// lease can grant is answered 413 and none of its lines is folded.
func TestCompleteBodyCap(t *testing.T) {
	const leaseCells = 4
	c, err := New(Config{Spec: coordSpec(), LeaseCells: leaseCells})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	lr := c.Lease("w")
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := 0; i <= leaseCells; i++ {
		enc.Encode(campaign.CellResult{Cell: campaign.Cell{Index: i}}) //nolint:errcheck // bytes.Buffer cannot fail
	}
	resp, err := http.Post(ts.URL+"/v1/complete?lease="+lr.Lease, "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-long complete: code %d, want 413", resp.StatusCode)
	}
	if done := c.StatusNow().Done; done != 0 {
		t.Fatalf("over-long complete folded %d cells, want 0", done)
	}

	// Exactly one lease's worth is accepted.
	body.Reset()
	for i := 0; i < leaseCells; i++ {
		enc.Encode(campaign.CellResult{Cell: campaign.Cell{Index: i}}) //nolint:errcheck // bytes.Buffer cannot fail
	}
	resp, err = http.Post(ts.URL+"/v1/complete?lease="+lr.Lease, "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || c.StatusNow().Done != leaseCells {
		t.Fatalf("full-lease complete: code %d, done %d, want 200 and %d",
			resp.StatusCode, c.StatusNow().Done, leaseCells)
	}
}
