package gen

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"heisendump/internal/core"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/sched"
	"heisendump/internal/slicing"
	"heisendump/internal/statics"
)

// Oracle is the differential harness for generated programs. For each
// program it checks, in order:
//
//  1. the program compiles (lang parse+check, ir lowering) with and
//     without instrumentation;
//  2. the deterministic cooperative run passes — the seeded bug is a
//     Heisenbug, absent from the canonical schedule;
//  3. a witness interleaving crashes at the seeded failure site and
//     replays deterministically (the bug is real, twice over);
//  4. the static lockset analyzer flags every ground-truth racy
//     variable of the injected pattern (the recall gate: a seeded bug
//     the analyzer misses is an analyzer soundness bug);
//  5. the full reproduction pipeline runs under every configuration in
//     the determinism matrix — workers {1,4} — and they agree
//     bit-for-bit on Found, Schedule and Tries; a final pair of legs
//     with static guidance on (workers 1 and 4) must agree with each
//     other, and may differ from the unguided legs only in Tries and
//     Schedule, never in Found.
//
// Steps 1–3 validate the generator's own invariants; step 4 is the
// static analyzer's recall contract and step 5 the paper pipeline's
// determinism contract, exercised on a program nobody hand-tuned. Any
// disagreement in steps 4–5 is a Divergence — the
// fuzzer's highest-severity finding. The interpreter's semantics on
// generated programs are pinned separately, against the name-map
// reference interpreter in internal/interp.
type Oracle struct {
	// TrialBudget bounds each configuration's schedule search
	// (core.Config.MaxTries). 0 means defaultTrialBudget.
	TrialBudget int
	// StressBudget bounds each configuration's failure-provocation
	// phase. 0 means defaultStressBudget.
	StressBudget int
	// WitnessSeeds bounds the witness interleaving search. 0 means
	// defaultWitnessSeeds.
	WitnessSeeds int
	// Workers is the worker-count axis of the determinism matrix. Nil
	// means {1, 4}.
	Workers []int
}

const (
	defaultTrialBudget  = 3000
	defaultStressBudget = 6000
	defaultWitnessSeeds = 3000
)

// ConfigOutcome is the deterministic fingerprint of one pipeline
// configuration's run: the fields the determinism contract says must
// not depend on the configuration's cost knobs.
type ConfigOutcome struct {
	Label    string // e.g. "workers=4"
	Found    bool
	Tries    int
	Schedule string // canonical rendering of the winning preemption set
	Failure  string // "" on a normal run, else the typed pipeline error
}

// key is the cross-checked portion: everything except the label.
func (c ConfigOutcome) key() string {
	return fmt.Sprintf("found=%v tries=%d sched=%s failure=%s", c.Found, c.Tries, c.Schedule, c.Failure)
}

// Verdict is the oracle's judgment of one generated program.
type Verdict struct {
	Program *Program
	// Witness is the ground-truth crashing interleaving (nil only when
	// witness search itself failed; see Divergences).
	Witness *Witness
	// Outcomes holds one entry per checked configuration, matrix order.
	Outcomes []ConfigOutcome
	// StaticFlagged is the sorted list of variables the static lockset
	// analyzer flagged as race candidates. The recall gate requires it
	// to cover Program.RacyVars; anything beyond those is a benign
	// false positive from the filler templates, which callers aggregate
	// into the corpus-wide FP rate (see TestStaticRecallAndPrecision).
	StaticFlagged []string
	// Reproduced is true when the pipeline constructed a
	// failure-inducing schedule (under every configuration — they
	// agree whenever Divergences is empty).
	Reproduced bool
	// Missed is true when the bug is provably real (a witness exists)
	// but the pipeline did not reproduce it within its budgets.
	Missed bool
	// Divergences lists contract violations: generator invariant
	// breaches (no witness, cooperative crash) and — most seriously —
	// configurations whose Found/Schedule/Tries disagree. Empty means
	// the program passed.
	Divergences []string
	// TrialBudget and StressBudget record the effective budgets the
	// verdict was produced under, so corpus entries can be replayed at
	// the same budgets (a truncated search is not outcome drift).
	TrialBudget  int
	StressBudget int
}

func (o *Oracle) trialBudget() int {
	if o.TrialBudget > 0 {
		return o.TrialBudget
	}
	return defaultTrialBudget
}

func (o *Oracle) stressBudget() int {
	if o.StressBudget > 0 {
		return o.StressBudget
	}
	return defaultStressBudget
}

func (o *Oracle) witnessSeeds() int {
	if o.WitnessSeeds > 0 {
		return o.WitnessSeeds
	}
	return defaultWitnessSeeds
}

func (o *Oracle) workers() []int {
	if len(o.Workers) > 0 {
		return o.Workers
	}
	return []int{1, 4}
}

// Check runs the full differential harness on p. The returned error is
// reserved for infrastructure faults (the program failing to compile —
// a generator bug by definition); everything observable about the
// program itself lands in the Verdict.
func (o *Oracle) Check(ctx context.Context, p *Program) (*Verdict, error) {
	v := &Verdict{Program: p, TrialBudget: o.trialBudget(), StressBudget: o.stressBudget()}

	prog, err := p.Compile(true)
	if err != nil {
		return nil, err
	}
	if _, err := p.Compile(false); err != nil {
		return nil, fmt.Errorf("gen: %s: uninstrumented compile: %w", p.Name, err)
	}

	// Heisenbug invariant: the canonical schedule passes.
	m := interp.New(prog, p.Input)
	m.MaxSteps = witnessStepLimit
	if res := sched.Run(m, sched.NewCooperative()); res.Outcome() != sched.OutcomeDone {
		v.Divergences = append(v.Divergences,
			fmt.Sprintf("cooperative run %v (%v): the seeded bug is not a Heisenbug", res.Outcome(), res.Err()))
		return v, nil
	}

	// Ground truth: the bug is real and deterministically replayable.
	w, err := FindWitness(ctx, p, prog, o.witnessSeeds())
	if err != nil {
		if ctx.Err() != nil {
			return v, core.Cancelled(ctx.Err())
		}
		v.Divergences = append(v.Divergences, err.Error())
		return v, nil
	}
	v.Witness = w
	if err := ReplayWitness(p, prog, w); err != nil {
		v.Divergences = append(v.Divergences, fmt.Sprintf("second witness replay diverged: %v", err))
		return v, nil
	}

	// Static recall gate: the lockset analyzer must flag every
	// ground-truth racy variable of the injected pattern. Every seeded
	// bug is an unsynchronized conflicting pair by construction, so a
	// miss here is an analyzer soundness bug (its under-approximation
	// ran the wrong way), not noise.
	focus := statics.Analyze(prog).FocusSet()
	for name := range focus {
		v.StaticFlagged = append(v.StaticFlagged, name)
	}
	sort.Strings(v.StaticFlagged)
	for _, name := range p.RacyVars() {
		if !focus[name] {
			v.Divergences = append(v.Divergences,
				fmt.Sprintf("static recall violation: injected racy variable %q not flagged (flagged: %v)", name, v.StaticFlagged))
		}
	}

	// The determinism matrix: every configuration must agree. All
	// configurations share the one compiled program — ir.Program is
	// immutable and shared safely across machines everywhere else.
	for _, workers := range o.workers() {
		out, err := o.runPipeline(ctx, p, prog, workers, false)
		if err != nil {
			return nil, err
		}
		v.Outcomes = append(v.Outcomes, out)
	}

	base := v.Outcomes[0]
	for _, out := range v.Outcomes[1:] {
		if out.key() != base.key() {
			v.Divergences = append(v.Divergences,
				fmt.Sprintf("determinism violation: %s {%s} != %s {%s}", out.Label, out.key(), base.Label, base.key()))
		}
	}

	// The static-guidance axis: the same search with the analyzer's
	// focus set reordering the worklist. Guided Tries legitimately
	// differ from the unguided legs above (that is the guidance's whole
	// point), so these two legs form their own determinism pair —
	// workers 1 and 4 under guidance must still agree bit-for-bit.
	var staticOuts []ConfigOutcome
	for _, workers := range []int{1, 4} {
		out, err := o.runPipeline(ctx, p, prog, workers, true)
		if err != nil {
			return nil, err
		}
		staticOuts = append(staticOuts, out)
	}
	v.Outcomes = append(v.Outcomes, staticOuts...)
	if staticOuts[1].key() != staticOuts[0].key() {
		v.Divergences = append(v.Divergences,
			fmt.Sprintf("determinism violation: %s {%s} != %s {%s}",
				staticOuts[1].Label, staticOuts[1].key(), staticOuts[0].Label, staticOuts[0].key()))
	}
	if staticOuts[0].Found != base.Found {
		v.Divergences = append(v.Divergences,
			fmt.Sprintf("static guidance changed the verdict: %s found=%v vs %s found=%v (guidance may only reorder, never hide)",
				staticOuts[0].Label, staticOuts[0].Found, base.Label, base.Found))
	}
	v.Reproduced = base.Found
	v.Missed = !base.Found
	if err := ctx.Err(); err != nil {
		return v, core.Cancelled(err)
	}
	return v, nil
}

// runPipeline executes the full context-aware pipeline — provoke,
// analyze, search — under one configuration and fingerprints the
// deterministic outcome. The pipeline's typed sentinels (ErrNoFailure,
// ErrScheduleNotFound) are part of the fingerprint: a configuration
// that fails to provoke must fail to provoke under every other one.
// With static set, the analyzer's focus set guides the schedule search
// (core.Config.StaticFocus); guided legs are compared only against
// each other, since guidance reorders the exploration by design but
// must still be a pure function of (program, input, focus set).
func (o *Oracle) runPipeline(ctx context.Context, p *Program, prog *ir.Program, workers int, static bool) (ConfigOutcome, error) {
	label := fmt.Sprintf("workers=%d", workers)
	if static {
		label += " static"
	}
	pipe := core.NewPipeline(prog, p.Input, core.Config{
		Heuristic:         slicing.Temporal,
		MaxTries:          o.trialBudget(),
		MaxStressAttempts: o.stressBudget(),
		Workers:           workers,
		StaticFocus:       static,
	})
	rep, err := pipe.RunContext(ctx)
	return fingerprint(label, rep, err)
}

// fingerprint reduces a pipeline report to the deterministic outcome.
func fingerprint(label string, rep *core.Report, err error) (ConfigOutcome, error) {
	out := ConfigOutcome{Label: label}
	switch {
	case err == nil:
	case errors.Is(err, core.ErrNoFailure):
		out.Failure = "no-failure"
	case errors.Is(err, core.ErrScheduleNotFound):
		out.Failure = "schedule-not-found"
	default:
		return out, fmt.Errorf("pipeline %s: %w", label, err)
	}
	if rep != nil && rep.Search != nil {
		out.Found = rep.Search.Found
		out.Tries = rep.Search.Tries
		out.Schedule = rep.Search.ScheduleString()
	}
	return out, nil
}
