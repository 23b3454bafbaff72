package gen

import (
	"context"
	"fmt"
	"slices"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/sched"
	"heisendump/internal/trace"
)

// witnessStepLimit bounds each witness-search run. Generated programs
// complete in a few thousand steps; anything past this is a generator
// bug (and surfaces as a typed step-limit outcome, not a hang).
const witnessStepLimit = 200_000

// Witness is ground truth that the seeded bug is real: a concrete
// interleaving that crashes at the intended failure site, plus the
// seed that produced it. The seed fixes every step of the schedule, so
// rerunning it on a fresh machine steps exactly Schedule and crashes
// at the same site (ReplayWitness checks exactly that).
type Witness struct {
	// Seed is the random-scheduler seed whose interleaving crashed.
	Seed int64
	// Schedule is the thread of each step of the crashing run.
	Schedule []int
	// Crash is the fault, matching the program's recorded Reason.
	Crash *interp.CrashInfo
}

// FindWitness searches seeded random interleavings — seeds 0,1,2,...
// in a fixed order, so an uncancelled search is a pure function of the
// program — for a run that crashes at the program's seeded failure
// site. It then reruns the crashing seed once under a trace.Recorder,
// takes the witness schedule from the thread of each event, and
// checks that the rerun crashed at the same site. The context is
// polled between seeds and inside each run, so a long search cancels
// cooperatively (returning the context's error).
//
// A crash with any other reason, a deadlock, or a step-limited run is
// a generator invariant violation (the templates are constructed to be
// benign) and is returned as an error carrying the typed sched
// diagnosis. Exhausting maxSeeds without a crash returns ErrNoWitness
// wrapped with the program name.
func FindWitness(ctx context.Context, p *Program, prog *ir.Program, maxSeeds int) (*Witness, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m := interp.New(prog, p.Input)
	m.MaxSteps = witnessStepLimit
	var rnd sched.Random
	for seed := int64(0); seed < int64(maxSeeds); seed++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gen: %s: witness search cancelled at seed %d: %w", p.Name, seed, err)
		}
		m.Reset(prog, p.Input)
		rnd.Seed(seed)
		res := sched.Runner{Ctx: ctx}.Run(m, &rnd)
		switch res.Outcome() {
		case sched.OutcomeCancelled:
			return nil, fmt.Errorf("gen: %s: witness search cancelled at seed %d: %w", p.Name, seed, ctx.Err())
		case sched.OutcomeCrashed:
			if res.Crash.Reason != p.Reason {
				return nil, fmt.Errorf("gen: %s: seed %d crashed with unintended reason %q (seeded bug is %q)",
					p.Name, seed, res.Crash.Reason, p.Reason)
			}
			w := &Witness{Seed: seed, Crash: res.Crash}
			schedule, err := w.rerun(p, prog)
			if err != nil {
				return nil, fmt.Errorf("gen: %s: witness from seed %d does not replay: %w", p.Name, seed, err)
			}
			w.Schedule = schedule
			return w, nil
		case sched.OutcomeDeadlocked, sched.OutcomeStepLimited:
			// Benign-by-construction templates must never do this; the
			// typed diagnosis names the offending schedule shape.
			return nil, fmt.Errorf("gen: %s: seed %d: generator invariant violated: %w", p.Name, seed, res.Err())
		}
	}
	return nil, fmt.Errorf("gen: %s: %w within %d seeds", p.Name, ErrNoWitness, maxSeeds)
}

// ErrNoWitness reports a witness search that exhausted its seed budget
// without provoking the seeded bug — the generated window is too
// narrow for the budget, not proof the bug is absent.
var ErrNoWitness = fmt.Errorf("no witness interleaving found")

// ReplayWitness reruns the witness seed on a fresh machine and
// verifies that it steps exactly the witness schedule and crashes at
// the seeded failure site — same reason and, when w.Crash is set, same
// thread and PC. A rerun that deadlocks or completes instead returns
// an error carrying the typed sched outcome; a replayable witness is
// what makes corpus entries self-checking.
func ReplayWitness(p *Program, prog *ir.Program, w *Witness) error {
	schedule, err := w.rerun(p, prog)
	if err == nil && !slices.Equal(schedule, w.Schedule) {
		i := 0
		for i < len(schedule) && i < len(w.Schedule) && schedule[i] == w.Schedule[i] {
			i++
		}
		err = fmt.Errorf("witness seed %d reruns %d steps that leave the %d-step witness schedule at step %d",
			w.Seed, len(schedule), len(w.Schedule), i)
	}
	return err
}

// rerun runs w's seed on a fresh machine under a trace.Recorder, checks
// that the run crashes at the seeded failure site, and returns the
// thread of each of its steps.
func (w *Witness) rerun(p *Program, prog *ir.Program) ([]int, error) {
	m := interp.New(prog, p.Input)
	m.MaxSteps = witnessStepLimit
	rec := trace.NewRecorder()
	m.Hooks = rec
	res := sched.Run(m, sched.NewRandom(w.Seed))
	if out := res.Outcome(); out != sched.OutcomeCrashed {
		if err := res.Err(); err != nil {
			return nil, fmt.Errorf("witness replay %v instead of crashing: %w", out, err)
		}
		return nil, fmt.Errorf("witness replay %v instead of crashing", out)
	}
	if res.Crash.Reason != p.Reason {
		return nil, fmt.Errorf("witness replay crashed with %q, want %q", res.Crash.Reason, p.Reason)
	}
	if w.Crash != nil {
		if res.Crash.ThreadID != w.Crash.ThreadID || res.Crash.PC != w.Crash.PC {
			return nil, fmt.Errorf("witness replay crashed at thread %d %v, want thread %d %v",
				res.Crash.ThreadID, res.Crash.PC, w.Crash.ThreadID, w.Crash.PC)
		}
	}
	schedule := make([]int, len(rec.Events))
	for i := range rec.Events {
		schedule[i] = rec.Events[i].Thread
	}
	return schedule, nil
}
