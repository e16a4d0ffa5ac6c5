// Package sched simulates the paper's asynchronous adversary. Agents
// choose routes; the adversary controls the walk along them. The
// continuous model is discretized into half-steps without losing
// adversarial power (DESIGN.md §2.2): an agent is either at a node or
// strictly inside an edge, the adversary repeatedly picks one agent and
// advances it half a step (leave node / arrive at far node) or wakes a
// dormant agent, and a meeting is forced exactly when
//
//   - two agents are simultaneously at the same node, or
//   - two agents are simultaneously inside the same edge travelling in
//     opposite directions (continuous walks must cross).
//
// Agent programs come in two observationally identical flavours
// (DESIGN.md §2.2, "execution model"). A Stepper is an explicit
// resumable state machine the runner drives inline on its own goroutine
// — the zero-handoff fast path. A plain Agent runs its blocking program
// in its own goroutine, but exactly one goroutine is runnable at any
// time: the runner and the active agent hand control back and forth
// over unbuffered channels. Either way executions are fully
// deterministic given the adversary.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"meetpoly/internal/graph"
	"meetpoly/internal/rverr"
)

// Observation is everything the model lets an agent see upon arriving at
// a node: its degree and the entry port. Entry is -1 at the agent's
// starting node. Node identities are deliberately absent.
type Observation struct {
	Degree int
	Entry  int
}

// Peer is the information another agent shares during a meeting.
type Peer struct {
	ID      int
	Payload any
}

// Encounter describes one meeting from one participant's point of view.
type Encounter struct {
	Step   int    // scheduler step at which the meeting happened
	InEdge bool   // true for a crossing meeting inside an edge
	Peers  []Peer // the other participants' published payloads
}

// Agent is a participant in a simulation.
//
// Run is the agent's program. It executes in its own goroutine and moves
// by calling Proc.Move; returning from Run halts the agent forever (it
// remains physically present and meetable). OnMeet and Publish are always
// invoked while the agent's goroutine is suspended, so they may touch the
// same state as Run without synchronization.
//
// Agents that additionally implement Stepper are dispatched inline
// without a goroutine (see Stepper); Run is then only used when the
// fast path is disabled via Config.ForceBlocking.
type Agent interface {
	Run(p *Proc)
	// Publish returns the payload shared with peers at a meeting.
	Publish() any
	// OnMeet delivers a meeting. It runs before the agent resumes; state
	// it mutates is visible to Run immediately afterwards.
	OnMeet(e Encounter)
}

// ErrStopped is the panic value used to unwind agent goroutines when the
// runner shuts down; Proc.Move never returns after it.
var ErrStopped = errors.New("sched: runner stopped")

// Proc is the handle through which an agent program moves. Direct-
// dispatch steppers receive the same handle (for Proc.Phase) but never
// block in Move: the act/obs channels exist only on the goroutine core.
type Proc struct {
	r  *Runner
	id int

	cur  Observation
	act  chan Action
	obs  chan Observation
	done chan struct{}
}

// Obs returns the current observation (the node the agent occupies).
func (p *Proc) Obs() Observation { return p.cur }

// Phase announces an algorithm-level phase change to the runner's
// observer (no-op without one). It is safe to call from the agent's
// goroutine: agent code only runs while the runner is suspended, so the
// callback is serialized with all other observer callbacks.
func (p *Proc) Phase(name string) {
	if p.r.obs != nil {
		p.r.obs.OnPhase(p.id, name)
	}
}

// Move requests a traversal through the given port and blocks until the
// adversary has carried the agent to the other endpoint. It returns the
// arrival observation. If the runner shuts down first, Move panics with
// ErrStopped, which the agent wrapper recovers; program code after Move
// simply never runs.
func (p *Proc) Move(port int) Observation {
	select {
	case p.act <- Action{Port: port}:
	case <-p.done:
		panic(ErrStopped)
	}
	select {
	case o := <-p.obs:
		p.cur = o
		return o
	case <-p.done:
		panic(ErrStopped)
	}
}

// Status of an agent in the simulation.
type Status uint8

// Agent lifecycle states.
const (
	StatusDormant Status = iota + 1
	StatusActive
	StatusHalted
)

func (s Status) String() string {
	switch s {
	case StatusDormant:
		return "dormant"
	case StatusActive:
		return "active"
	case StatusHalted:
		return "halted"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// PosKind distinguishes node occupancy from edge interiors.
type PosKind uint8

// Position kinds.
const (
	AtNode PosKind = iota + 1
	InEdge
)

// Position is an agent's physical location.
type Position struct {
	Kind PosKind
	Node int // occupied node when AtNode
	From int // tail node when InEdge
	To   int // head node when InEdge
}

// agentState is the runner's bookkeeping for one agent.
type agentState struct {
	agent   Agent
	stepper Stepper // non-nil selects the direct-dispatch fast path
	proc    *Proc
	// ownProc backs proc for stepper-only teams, so their Procs live in
	// the pooled scratch instead of on the heap.
	ownProc Proc
	id      int
	status  Status
	pos     Position

	pendingPort  int  // committed exit port when hasPending
	pendingEntry int  // arrival entry port of the pending traversal (set at half-step 1)
	hasPending   bool // an un-executed Move request exists
	traversals   int  // completed edge traversals
}

// EventKind enumerates adversary moves.
type EventKind uint8

// Adversary event kinds.
const (
	EventWake EventKind = iota + 1
	EventAdvance
)

// Event is one adversary decision.
type Event struct {
	Kind  EventKind
	Agent int
}

// Meeting is a recorded meeting for the execution log.
type Meeting struct {
	Step         int
	Participants []int
	InEdge       bool
	Node         int    // meeting node when !InEdge
	Edge         [2]int // canonical edge when InEdge
	// Cost is the total completed edge traversals (all agents) when the
	// meeting fired; Committed additionally counts traversals in
	// progress, which the model obliges agents to finish.
	Cost      int
	Committed int
}

// Config describes a simulation.
type Config struct {
	Graph  *graph.Graph
	Starts []int   // starting node per agent (distinct)
	Agents []Agent // same length as Starts
	// InitiallyAwake lists agents woken before the first adversary event.
	// The paper's adversary wakes at least one agent; Run enforces that
	// either this list is non-empty or the adversary issues a wake event
	// before any advance.
	InitiallyAwake []int
	// StopWhen, if non-nil, ends the run after any event for which it
	// returns true. Typical: stop at first meeting.
	StopWhen func(r *Runner) bool
	// StopAtFirstMeeting ends the run once any meeting has fired: the
	// rendezvous-shaped StopWhen, as a field so the hot loop tests a
	// flag and a length instead of calling a closure per event.
	StopAtFirstMeeting bool
	// MaxSteps bounds the number of adversary events (safety net).
	MaxSteps int
	// Context, if non-nil, aborts the run between adversary events when
	// canceled; the Summary then reports Canceled.
	Context context.Context
	// Observer, if non-nil, receives execution events (see Observer).
	Observer Observer
	// ForceBlocking disables the direct-dispatch fast path: every agent,
	// Stepper or not, runs its blocking program on the goroutine core.
	// The differential test suite and the scheduler benchmarks use it to
	// compare the two execution cores; production callers leave it off.
	ForceBlocking bool
}

// Runner executes a simulation.
type Runner struct {
	g      *graph.Graph
	agents []*agentState
	adv    Adversary

	steps    int
	meetings []Meeting

	// Maintained aggregates: how many agents are still dormant and how
	// many hold an uncommitted move. They turn the per-event liveness
	// check (and the adversaries' wake scans, via View.AnyDormant) into
	// two integer reads instead of per-agent loops.
	dormantCount int
	pendingCount int

	stopWhen    func(r *Runner) bool
	stopAtMeet  bool
	maxSteps    int
	initialWake []int
	ctx         context.Context
	obs         Observer
	canceled    bool

	// done exists only when some agent runs on the goroutine core; the
	// stepper fast path never blocks, so it needs no shutdown channel.
	done   chan struct{}
	wg     sync.WaitGroup
	closed bool

	// Hot-path scratch, reused across events so the per-half-step cost
	// is allocation-free — and, via scratch, across runs, so steady-state
	// sweeps allocate almost nothing per run (see runScratch).
	scratch     *runScratch
	viewBuf     View
	contacts    []bool      // pair contact bits, i*k+j with i<j, kept current
	curContacts []bool      // pair contact bits assembled by a full detect
	grouped     []bool      // per-agent: already claimed by a node group
	edgeGroup   []int32     // per graph.EdgeIndex: 1+group slot of the crossing group
	edgeTouched []int32     // edge indices written in edgeGroup this check
	groups      []meetGroup // group slot pool
	nGroups     int
}

// runScratch is the pooled per-run buffer set. Runners acquire one in
// NewRunner and release it in Close, so a worker that executes runs
// back-to-back (the sweep steady state) reuses the same memory instead
// of re-allocating per-agent state, contact bitsets and view buffers
// for every cell.
type runScratch struct {
	states      []agentState
	ptrs        []*agentState
	contacts    []bool
	curContacts []bool
	grouped     []bool
	edgeGroup   []int32
	edgeTouched []int32
	groups      []meetGroup
	wake        []int
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// boolBuf returns b resized to n cleared slots, reusing capacity.
func boolBuf(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// ctxPollStride is how many adversary events pass between context
// checks. Cancellation is documented to land "between events"; polling
// every event made ctx.Err a measurable share of the half-step cost, so
// the runner amortizes the check without changing the contract.
const ctxPollStride = 64

// meetGroup is one co-located agent group found by detectMeetings.
type meetGroup struct {
	members []int
	inEdge  bool
	node    int
	edge    [2]int
}

// Adversary chooses the schedule. Next returns ok=false to end the run
// (e.g. nothing left to do).
type Adversary interface {
	Next(v *View) (Event, bool)
}

// NewRunner validates the configuration and prepares a runner. Call Run
// to execute and Close to release agent goroutines.
func NewRunner(cfg Config, adv Adversary) (*Runner, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("sched: nil graph: %w", rverr.ErrInvalidScenario)
	}
	if len(cfg.Agents) == 0 || len(cfg.Agents) != len(cfg.Starts) {
		return nil, fmt.Errorf("sched: %d agents vs %d starts: %w",
			len(cfg.Agents), len(cfg.Starts), rverr.ErrInvalidScenario)
	}
	seen := make(map[int]bool)
	for _, s := range cfg.Starts {
		if s < 0 || s >= cfg.Graph.N() {
			return nil, fmt.Errorf("sched: start node %d out of range: %w", s, rverr.ErrInvalidScenario)
		}
		if seen[s] {
			return nil, fmt.Errorf("sched: duplicate start node %d: %w", s, rverr.ErrInvalidScenario)
		}
		seen[s] = true
	}
	if cfg.MaxSteps <= 0 {
		return nil, fmt.Errorf("sched: MaxSteps must be positive: %w", rverr.ErrInvalidScenario)
	}
	for _, i := range cfg.InitiallyAwake {
		if i < 0 || i >= len(cfg.Agents) {
			return nil, fmt.Errorf("sched: InitiallyAwake index %d out of range: %w", i, rverr.ErrInvalidScenario)
		}
	}
	// Every validation precedes the scratch acquisition below: an error
	// return past scratchPool.Get would leak the scratch (nobody would
	// ever Close this runner), so no error path may exist after it.
	r := &Runner{
		g:          cfg.Graph,
		adv:        adv,
		stopWhen:   cfg.StopWhen,
		stopAtMeet: cfg.StopAtFirstMeeting,
		maxSteps:   cfg.MaxSteps,
		ctx:        cfg.Context,
		obs:        cfg.Observer,
	}
	k := len(cfg.Agents)
	s := scratchPool.Get().(*runScratch)
	r.scratch = s
	if cap(s.states) < k {
		s.states = make([]agentState, k)
		s.ptrs = make([]*agentState, k)
	} else {
		s.states = s.states[:k]
		s.ptrs = s.ptrs[:k]
		clear(s.states)
	}
	blocking := false
	for i, a := range cfg.Agents {
		st := &s.states[i]
		st.agent = a
		st.id = i
		st.status = StatusDormant
		st.pos = Position{Kind: AtNode, Node: cfg.Starts[i]}
		if !cfg.ForceBlocking {
			st.stepper, _ = a.(Stepper)
		}
		if st.stepper == nil {
			blocking = true
		}
		s.ptrs[i] = st
	}
	r.agents = s.ptrs
	if blocking {
		// Shutdown and hand-off channels exist only on the goroutine
		// core; a pure stepper team never blocks.
		r.done = make(chan struct{})
	}
	for _, st := range r.agents {
		if !blocking {
			// A stepper never holds its Proc past a Step call, so the
			// pooled one is safe to reuse run after run.
			st.ownProc = Proc{r: r, id: st.id}
			st.proc = &st.ownProc
			continue
		}
		// On the goroutine core Procs are heap-allocated per run (not
		// pooled): agent programs hold them across goroutine suspension
		// points, so a pooled Proc could alias a later run's.
		st.proc = &Proc{r: r, id: st.id, done: r.done}
		if st.stepper == nil {
			st.proc.act = make(chan Action)
			st.proc.obs = make(chan Observation)
		}
	}
	r.initialWake = append(s.wake[:0], cfg.InitiallyAwake...)
	r.dormantCount = k
	s.contacts = boolBuf(s.contacts, k*k)
	s.curContacts = boolBuf(s.curContacts, k*k)
	s.grouped = boolBuf(s.grouped, k)
	r.contacts, r.curContacts, r.grouped = s.contacts, s.curContacts, s.grouped
	r.edgeGroup = s.edgeGroup
	r.edgeTouched = s.edgeTouched[:0]
	r.groups = s.groups
	r.viewBuf = View{g: r.g, dormant: &r.dormantCount, agents: r.agents}
	return r, nil
}

// Run executes the simulation until the adversary rests, StopWhen fires,
// MaxSteps is reached, or no agent can act. It returns the execution
// summary. Run may be called once.
//
//rvlint:hotpath
func (r *Runner) Run() Summary {
	for _, i := range r.initialWake {
		r.wake(i)
	}
	// Waking changes no positions, so one full detection pass after the
	// initial wakes covers any configuration the validator admits.
	r.detectMeetings()
	for r.steps < r.maxSteps {
		// Cancellation audit: this stride poll is sound because steps
		// advances on EVERY applied event — apply is followed
		// unconditionally by r.steps++, for wakes as much as advances —
		// and every path that does not advance steps (stop conditions,
		// a resting adversary, no actionable agent) exits the loop. An
		// adversary therefore cannot defer the poll by more than
		// ctxPollStride events, no matter which event mix it drives.
		if r.ctx != nil && r.steps%ctxPollStride == 0 && r.ctx.Err() != nil {
			r.canceled = true
			break
		}
		if r.stopAtMeet && len(r.meetings) > 0 {
			break
		}
		if r.stopWhen != nil && r.stopWhen(r) {
			break
		}
		if !r.anyActionable() {
			break
		}
		v := r.view()
		ev, ok := r.adv.Next(v)
		if !ok {
			break
		}
		entered := r.apply(ev)
		if r.obs != nil {
			r.obs.OnEvent(r.steps, ev)
		}
		r.steps++
		if entered {
			// Half-step 1 (leaving a node) can create a crossing contact;
			// arrivals already ran their detection inside apply, before
			// the arriving agent's next decision, and wakes move nobody.
			r.detectAfterMove(ev.Agent)
		}
	}
	return r.summary()
}

// Close unblocks and joins all agent goroutines, then releases the
// runner's pooled buffers. Safe to call many times. A closed runner's
// Summary values remain valid (they are copies), but the live accessors
// (Traversals, TotalCost, Meetings) must not be called after Close.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.done != nil {
		close(r.done)
	}
	r.wg.Wait()
	s := r.scratch
	if s == nil {
		return
	}
	r.scratch = nil
	// The Put is deferred so the scratch returns to the pool even if a
	// release step below panics: a leaked scratch is a silent allocation
	// regression that no test would catch.
	defer scratchPool.Put(s)
	// Store the (possibly grown) buffers back and drop every reference to
	// caller-owned values before pooling. The pointer-bearing buffers are
	// cleared to FULL capacity, not current length: a previous, larger
	// tenant's agents/steppers/procs would otherwise stay reachable past
	// the live prefix and leak into every later run sharing the scratch.
	s.contacts, s.curContacts, s.grouped = r.contacts, r.curContacts, r.grouped
	s.edgeGroup, s.edgeTouched = r.edgeGroup, r.edgeTouched
	s.groups = r.groups
	s.wake = r.initialWake[:0]
	clear(s.states[:cap(s.states)])
	clear(s.ptrs[:cap(s.ptrs)])
	r.agents = nil
	r.viewBuf = View{}
	r.contacts, r.curContacts, r.grouped = nil, nil, nil
	r.edgeGroup, r.edgeTouched, r.groups = nil, nil, nil
	r.initialWake = nil
}

// anyActionable reports whether some agent is dormant or has a pending move.
func (r *Runner) anyActionable() bool {
	return r.dormantCount > 0 || r.pendingCount > 0
}

// wake activates a dormant agent and records its first decision: inline
// for steppers, via a fresh goroutine for blocking programs.
func (r *Runner) wake(i int) {
	st := r.agents[i]
	if st.status != StatusDormant {
		return
	}
	st.status = StatusActive
	r.dormantCount--
	st.proc.cur = Observation{Degree: r.g.Degree(st.pos.Node), Entry: -1}
	if st.stepper != nil {
		r.commit(st, st.stepper.Step(st.proc, st.proc.cur))
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() {
			if rec := recover(); rec != nil && rec != ErrStopped { //nolint:errorlint // sentinel identity
				panic(rec)
			}
		}()
		st.agent.Run(st.proc)
		select {
		case st.proc.act <- Action{Halt: true}:
		case <-r.done:
		}
	}()
	r.receiveDecision(st)
}

// receiveDecision blocks until the agent goroutine commits its next
// action (goroutine core only).
func (r *Runner) receiveDecision(st *agentState) {
	r.commit(st, <-st.proc.act)
}

// commit validates and records one agent decision, whichever core
// produced it.
//
//rvlint:hotpath
func (r *Runner) commit(st *agentState, a Action) {
	// An agent deciding has no uncommitted move: commit runs right after
	// a wake or an arrival, both of which leave hasPending false.
	if a.Halt {
		st.status = StatusHalted
		return
	}
	deg := r.g.Degree(st.pos.Node)
	if a.Port < 0 || a.Port >= deg {
		invalidPort(a.Port, deg)
	}
	st.pendingPort = a.Port
	st.hasPending = true
	r.pendingCount++
}

// apply executes an adversary event and reports whether it was a
// half-step 1 (the agent entered an edge), which is the one transition
// whose meeting detection the Run loop still owes. An invalid event is a
// programming error in the strategy and panics loudly.
//
//rvlint:hotpath
func (r *Runner) apply(ev Event) (enteredEdge bool) {
	if ev.Agent < 0 || ev.Agent >= len(r.agents) {
		r.invalidEvent(ev)
	}
	st := r.agents[ev.Agent]
	switch ev.Kind {
	case EventWake:
		if st.status != StatusDormant {
			r.invalidEvent(ev)
		}
		r.wake(ev.Agent)
		return false
	case EventAdvance:
		if st.status != StatusActive || !st.hasPending {
			r.invalidEvent(ev)
		}
		if st.pos.Kind == AtNode {
			// Half-step 1: leave the node. The arrival entry port is
			// resolved here, by the same Succ lookup, so the arrival
			// half-step need not repeat it.
			from := st.pos.Node
			to, entry := r.g.Succ(from, st.pendingPort)
			st.pos = Position{Kind: InEdge, From: from, To: to}
			st.pendingEntry = entry
			return true
		}
		// Half-step 2: arrive.
		from, to := st.pos.From, st.pos.To
		entry := st.pendingEntry
		st.pos = Position{Kind: AtNode, Node: to}
		st.traversals++
		st.hasPending = false
		r.pendingCount--
		if r.obs != nil {
			r.obs.OnTraversal(ev.Agent, from, to)
		}
		// Meetings caused by the arrival must be delivered before the
		// agent decides its next action. (The adversary view is synced
		// once per event by the Run loop; nothing here reads it.)
		r.detectAfterMove(ev.Agent)
		obs := Observation{Degree: r.g.Degree(to), Entry: entry}
		st.proc.cur = obs
		if st.stepper != nil {
			r.commit(st, st.stepper.Step(st.proc, obs))
			return false
		}
		st.proc.obs <- obs
		r.receiveDecision(st)
		return false
	default:
		r.invalidEvent(ev)
		return false
	}
}

// invalidEvent fails loudly on a malformed adversary event. Cold by
// construction: it exists so apply's hot body carries no fmt call.
func (r *Runner) invalidEvent(ev Event) {
	panic(fmt.Sprintf("sched: adversary issued invalid event %+v", ev))
}

// invalidPort fails loudly on an out-of-range port decision (commit's
// cold path, kept out of its hot body).
func invalidPort(port, deg int) {
	panic(fmt.Sprintf("sched: agent chose invalid port %d at degree-%d node", port, deg))
}

// inContact reports the position-level contact condition between two
// agents: co-located at a node, or inside the same edge in opposite
// directions. This is exactly the pair condition detectMeetings encodes
// in its contact bitsets.
func inContact(a, b *agentState) bool {
	if a.pos.Kind == AtNode {
		return b.pos.Kind == AtNode && a.pos.Node == b.pos.Node
	}
	return b.pos.Kind == InEdge && a.pos.From == b.pos.To && a.pos.To == b.pos.From
}

// detectAfterMove is the incremental fast path of meeting detection:
// after agent i moved a half-step, only pairs involving i can change.
// If i gained a new contact the full detector runs (it owns group
// assembly and encounter delivery); otherwise the pair bits involving i
// are refreshed in place and nothing fires. This removes the full
// all-pairs rescan from the per-event cost without changing which
// meetings fire or when.
//
//rvlint:hotpath
func (r *Runner) detectAfterMove(i int) {
	k := len(r.agents)
	si := r.agents[i]
	if k == 2 {
		// Two-agent fast path (the dominant shape): one opponent, and
		// the (0,1) pair bit is index 1.
		if inContact(si, r.agents[1-i]) {
			if !r.contacts[1] {
				r.detectMeetings()
			}
		} else {
			r.contacts[1] = false
		}
		return
	}
	for j := 0; j < k; j++ {
		if j == i {
			continue
		}
		b := pairBit(i, j, k)
		if inContact(si, r.agents[j]) {
			if !r.contacts[b] {
				// New contact: the full detector recomputes every group
				// against the current bits and fires exactly the groups
				// holding a fresh pair — all of which involve i.
				r.detectMeetings()
				return
			}
		} else {
			r.contacts[b] = false
		}
	}
}

// pairBit returns the index of the (i, j) contact bit in the k*k pair
// bitset (order-normalized).
func pairBit(i, j, k int) int {
	if i > j {
		i, j = j, i
	}
	return i*k + j
}

// newGroup claims a group slot from the reusable pool.
func (r *Runner) newGroup() int {
	if r.nGroups == len(r.groups) {
		r.groups = append(r.groups, meetGroup{})
	}
	g := r.nGroups
	r.nGroups++
	members := r.groups[g].members[:0]
	r.groups[g] = meetGroup{members: members}
	return g
}

// detectMeetings fires encounters for every co-located group that gained
// a new contact pair since the last check, and wakes dormant
// participants. It runs after every adversary event, so it works on
// reused dense buffers — pair bitsets and an edge-indexed group table —
// instead of allocating maps.
func (r *Runner) detectMeetings() {
	k := len(r.agents)
	cur := r.curContacts
	for i := range cur {
		cur[i] = false
	}
	r.nGroups = 0

	// Node groups, in ascending lowest-member order.
	grouped := r.grouped
	for i := range grouped {
		grouped[i] = false
	}
	for i := 0; i < k; i++ {
		si := r.agents[i]
		if si.pos.Kind != AtNode || grouped[i] {
			continue
		}
		gi := -1
		for j := i + 1; j < k; j++ {
			sj := r.agents[j]
			if sj.pos.Kind != AtNode || sj.pos.Node != si.pos.Node {
				continue
			}
			if gi < 0 {
				gi = r.newGroup()
				r.groups[gi].node = si.pos.Node
				r.groups[gi].members = append(r.groups[gi].members, i)
			}
			r.groups[gi].members = append(r.groups[gi].members, j)
			grouped[j] = true
		}
		if gi >= 0 {
			ms := r.groups[gi].members
			for x := 0; x < len(ms); x++ {
				for y := x + 1; y < len(ms); y++ {
					cur[pairBit(ms[x], ms[y], k)] = true
				}
			}
		}
	}

	// Crossing groups: same edge, opposite directions, keyed by the
	// dense graph.EdgeIndex of the occupied edge.
	for i := 0; i < k; i++ {
		si := r.agents[i]
		if si.pos.Kind != InEdge {
			continue
		}
		for j := i + 1; j < k; j++ {
			sj := r.agents[j]
			if sj.pos.Kind != InEdge {
				continue
			}
			if si.pos.From == sj.pos.To && si.pos.To == sj.pos.From {
				if len(r.edgeGroup) < r.g.M() {
					r.edgeGroup = make([]int32, r.g.M())
				}
				e := r.g.EdgeIndex(si.pos.From, si.pendingPort)
				gi := int(r.edgeGroup[e]) - 1
				if gi < 0 {
					gi = r.newGroup()
					r.groups[gi].inEdge = true
					r.groups[gi].edge = canonEdge(si.pos.From, si.pos.To)
					r.edgeGroup[e] = int32(gi) + 1
					r.edgeTouched = append(r.edgeTouched, int32(e))
				}
				r.groups[gi].members = appendUnique(r.groups[gi].members, i)
				r.groups[gi].members = appendUnique(r.groups[gi].members, j)
				cur[pairBit(i, j, k)] = true
			}
		}
	}
	for _, e := range r.edgeTouched {
		r.edgeGroup[e] = 0
	}
	r.edgeTouched = r.edgeTouched[:0]

	// Which groups contain a newly-in-contact pair? Fire those, in group
	// discovery order (node groups by lowest member, then crossings).
	for gi := 0; gi < r.nGroups; gi++ {
		gr := &r.groups[gi]
		isNew := false
		for x := 0; x < len(gr.members) && !isNew; x++ {
			for y := x + 1; y < len(gr.members); y++ {
				b := pairBit(gr.members[x], gr.members[y], k)
				if cur[b] && !r.contacts[b] {
					isNew = true
					break
				}
			}
		}
		if !isNew {
			continue
		}
		r.fireMeeting(gr.members, gr.inEdge, gr.node, gr.edge)
	}
	r.contacts, r.curContacts = cur, r.contacts
}

// fireMeeting publishes payloads, delivers OnMeet to every participant
// and wakes dormant ones.
func (r *Runner) fireMeeting(members []int, inEdge bool, node int, edge [2]int) {
	payloads := make([]Peer, len(members))
	for idx, id := range members {
		payloads[idx] = Peer{ID: id, Payload: r.agents[id].agent.Publish()}
	}
	for idx, id := range members {
		peers := make([]Peer, 0, len(members)-1)
		for j, p := range payloads {
			if j != idx {
				peers = append(peers, p)
			}
		}
		r.agents[id].agent.OnMeet(Encounter{Step: r.steps, InEdge: inEdge, Peers: peers})
	}
	committed := 0
	for _, st := range r.agents {
		if st.pos.Kind == InEdge {
			committed++
		}
	}
	m := Meeting{
		Step: r.steps, Participants: append([]int(nil), members...),
		InEdge: inEdge, Node: node, Edge: edge,
		Cost: r.TotalCost(), Committed: r.TotalCost() + committed,
	}
	r.meetings = append(r.meetings, m)
	if r.obs != nil {
		r.obs.OnMeeting(m)
	}
	// A dormant agent is woken by an agent visiting its start node.
	for _, id := range members {
		if r.agents[id].status == StatusDormant {
			r.wake(id)
		}
	}
}

func canonEdge(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// Meetings returns the meetings recorded so far.
func (r *Runner) Meetings() []Meeting { return r.meetings }

// Steps returns the number of adversary events executed.
func (r *Runner) Steps() int { return r.steps }

// Traversals returns the completed edge traversals of agent i.
func (r *Runner) Traversals(i int) int { return r.agents[i].traversals }

// TotalCost returns the summed completed traversals of all agents — the
// paper's cost measure.
func (r *Runner) TotalCost() int {
	t := 0
	for _, st := range r.agents {
		t += st.traversals
	}
	return t
}

// CostAccount is the per-run cost accounting in the paper's measure
// (completed edge traversals) beyond what Summary's Traversals/TotalCost
// already carry, surfaced so that bound oracles can check every run
// against the cost model without re-deriving anything from the event
// log.
type CostAccount struct {
	// MaxPerAgent is the largest single agent's traversal count — the
	// quantity Theorem 3.1's Π(n, ℓ) bounds for either agent.
	MaxPerAgent int
	// Committed additionally counts traversals in progress when the run
	// ended, which the model obliges agents to finish.
	Committed int
}

// Summary is the result of a run.
type Summary struct {
	Steps        int
	Meetings     []Meeting
	Traversals   []int
	TotalCost    int
	FirstMeeting *Meeting // nil if none
	// Account is the full per-run cost accounting (per-agent, committed,
	// wake steps) consumed by campaign bound oracles.
	Account CostAccount
	// Canceled reports that the run was aborted by its Config.Context.
	Canceled bool
	// Exhausted reports that the run consumed its full MaxSteps budget.
	Exhausted bool
}

func (r *Runner) summary() Summary {
	s := Summary{
		Steps:     r.steps,
		Meetings:  append([]Meeting(nil), r.meetings...),
		TotalCost: r.TotalCost(),
		Canceled:  r.canceled,
		Exhausted: !r.canceled && r.steps >= r.maxSteps,
	}
	inFlight := 0
	for _, st := range r.agents {
		s.Traversals = append(s.Traversals, st.traversals)
		if st.traversals > s.Account.MaxPerAgent {
			s.Account.MaxPerAgent = st.traversals
		}
		if st.pos.Kind == InEdge {
			inFlight++
		}
	}
	s.Account.Committed = s.TotalCost + inFlight
	if len(r.meetings) > 0 {
		m := r.meetings[0]
		s.FirstMeeting = &m
	}
	return s
}
