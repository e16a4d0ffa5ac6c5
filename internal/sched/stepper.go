package sched

// Action is one agent decision: halt forever, or traverse the edge
// leaving the current node through Port.
type Action struct {
	Halt bool
	Port int
}

// Stepper is the direct-dispatch agent representation: an explicit
// resumable state machine that returns its next action instead of
// blocking in Proc.Move. The runner drives Steppers inline on its own
// goroutine — no per-agent goroutine, no channel hand-off — which is
// the scheduler's fast path (DESIGN.md §2.2, "execution model").
//
// Step is invoked once at wake (with Entry == -1, mirroring the first
// Proc.Obs of the blocking API) and once after every completed
// traversal, with the arrival observation. Returning Action{Halt: true}
// halts the agent forever (it remains physically present and meetable),
// exactly like returning from Agent.Run. The Proc handle is provided
// for Proc.Phase announcements; its Move method must not be called from
// Step. The *Proc is valid only during the Step call it is passed to:
// the runner may keep it in pooled scratch that a later run reuses, so
// a Stepper must not retain it.
//
// OnMeet and Publish keep their Agent contract: they run between Step
// invocations, so state they mutate is visible to the next Step without
// synchronization. A Stepper still implements the blocking Agent
// interface — RunStepper is the canonical Run for agents whose program
// lives in Step — so the same value runs on either execution core, and
// the differential test suite proves the two cores observationally
// identical.
type Stepper interface {
	Agent
	Step(p *Proc, o Observation) Action
}

// RunStepper drives a Stepper through the blocking Proc API: the
// canonical Agent.Run implementation for state-machine agents forced
// onto the goroutine core (Config.ForceBlocking).
func RunStepper(s Stepper, p *Proc) {
	o := p.Obs()
	for {
		a := s.Step(p, o)
		if a.Halt {
			return
		}
		o = p.Move(a.Port)
	}
}
