package gen

import (
	"context"
	"fmt"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/sched"
)

// witnessStepLimit bounds each witness-search run. Generated programs
// complete in a few thousand steps; anything past this is a generator
// bug (and surfaces as a typed step-limit outcome, not a hang).
const witnessStepLimit = 200_000

// Witness is ground truth that the seeded bug is real: a concrete
// interleaving that crashes at the intended failure site, plus the
// seed that produced it. Replaying Schedule on a fresh machine crashes
// deterministically (ReplayWitness checks exactly that).
type Witness struct {
	// Seed is the random-scheduler seed whose interleaving crashed.
	Seed int64
	// Schedule is the full thread schedule of the crashing run.
	Schedule []int
	// Steps is the crashing run's length.
	Steps int64
	// Crash is the fault, matching the program's recorded Reason.
	Crash *interp.CrashInfo
}

// FindWitness searches seeded random interleavings — seeds 0,1,2,...
// in a fixed order, so an uncancelled search is a pure function of the
// program — for a run that crashes at the program's seeded failure
// site. The found schedule is verified by replay before it is
// returned. The context is polled between seeds and inside each run,
// so a long search cancels cooperatively (returning the context's
// error).
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
		res := sched.Runner{Ctx: ctx, Record: true}.Run(m, &rnd)
		switch res.Outcome() {
		case sched.OutcomeCancelled:
			return nil, fmt.Errorf("gen: %s: witness search cancelled at seed %d: %w", p.Name, seed, ctx.Err())
		case sched.OutcomeCrashed:
			if res.Crash.Reason != p.Reason {
				return nil, fmt.Errorf("gen: %s: seed %d crashed with unintended reason %q (seeded bug is %q)",
					p.Name, seed, res.Crash.Reason, p.Reason)
			}
			w := &Witness{
				Seed:     seed,
				Schedule: res.Schedule,
				Steps:    res.Steps,
				Crash:    res.Crash,
			}
			if err := ReplayWitness(p, prog, w); err != nil {
				return nil, fmt.Errorf("gen: %s: witness from seed %d does not replay: %w", p.Name, seed, err)
			}
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

// ReplayWitness replays the witness schedule on a fresh machine and
// verifies it crashes at the seeded failure site — same reason, same
// thread, same PC. A schedule that stalls, deadlocks or completes
// instead returns an error carrying the typed sched outcome; a
// replayable witness is what makes corpus entries self-checking.
func ReplayWitness(p *Program, prog *ir.Program, w *Witness) error {
	m := interp.New(prog, p.Input)
	m.MaxSteps = witnessStepLimit
	res := sched.Run(m, sched.NewReplayer(w.Schedule))
	if out := res.Outcome(); out != sched.OutcomeCrashed {
		if err := res.Err(); err != nil {
			return fmt.Errorf("witness replay %v instead of crashing: %w", out, err)
		}
		return fmt.Errorf("witness replay %v instead of crashing", out)
	}
	if res.Crash.Reason != p.Reason {
		return fmt.Errorf("witness replay crashed with %q, want %q", res.Crash.Reason, p.Reason)
	}
	if w.Crash != nil {
		if res.Crash.ThreadID != w.Crash.ThreadID || res.Crash.PC != w.Crash.PC {
			return fmt.Errorf("witness replay crashed at thread %d %v, want thread %d %v",
				res.Crash.ThreadID, res.Crash.PC, w.Crash.ThreadID, w.Crash.PC)
		}
	}
	return nil
}
