package core_test

import (
	"errors"
	"strings"
	"testing"

	"heisendump/internal/gen"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
	"heisendump/internal/statics"
	"heisendump/internal/trace"
	"heisendump/internal/workloads"
)

// frontEndSteps bounds each fuzzed program's run.
const frontEndSteps = 20_000

// FuzzFrontEnd drives arbitrary source through the front end as heisend
// does — lang.Parse (which runs Check), ir.Compile, statics.Analyze —
// and runs what compiles cooperatively under a trace.Recorder for at
// most 20,000 steps. It checks that nothing panics, that a rejection
// is a *lang.Error carrying the line it is about, that the run ends in
// a typed sched outcome other than an internal error, and that every
// variable id the trace holds indexes its Vars. Seeds: every
// registered workload and generated programs 1-10.
func FuzzFrontEnd(f *testing.F) {
	for _, name := range workloads.Names() {
		f.Add(workloads.ByName(name).Source)
	}
	for seed := int64(1); seed <= 10; seed++ {
		f.Add(gen.Generate(seed).Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ast, err := lang.Parse(src)
		if err != nil {
			checkRejection(t, src, err)
			return
		}
		prog, err := ir.Compile(ast, ir.Options{InstrumentLoops: true})
		if err != nil {
			checkRejection(t, src, err)
			return
		}
		statics.Analyze(prog)

		m := interp.New(prog, nil)
		m.MaxSteps = frontEndSteps
		rec := trace.NewRecorder()
		m.Hooks = rec
		res := sched.Runner{}.Run(m, sched.NewCooperative())
		switch o := res.Outcome(); o {
		case sched.OutcomeDone, sched.OutcomeCrashed, sched.OutcomeDeadlocked, sched.OutcomeStepLimited:
		default:
			t.Fatalf("run ended %v: %v", o, res.Err())
		}
		if int64(len(rec.Events)) != res.Steps {
			t.Fatalf("%d events for %d steps", len(rec.Events), res.Steps)
		}
		for i := range rec.Events {
			for _, ids := range [][]int32{rec.Reads(i), rec.Writes(i)} {
				for _, id := range ids {
					if id < 0 || int(id) >= len(rec.Vars) {
						t.Fatalf("event %d: variable id %d outside Vars (%d)", i, id, len(rec.Vars))
					}
				}
			}
		}
		for id, v := range rec.Vars {
			if got, ok := rec.ID(v); !ok || got != int32(id) {
				t.Fatalf("variable %+v has id %d, interned as %d (%v)", v, id, got, ok)
			}
		}
	})
}

// checkRejection requires err to be a typed source error whose line is
// in the source, or the program-level error of a missing main, which is
// about no line.
func checkRejection(t *testing.T, src string, err error) {
	t.Helper()
	var le *lang.Error
	if !errors.As(err, &le) {
		t.Fatalf("rejection is %T, not *lang.Error: %v", err, err)
	}
	if le.Phase != "parse" && le.Phase != "check" {
		t.Fatalf("rejection phase %q: %v", le.Phase, err)
	}
	lines := strings.Count(src, "\n") + 1
	if le.Line < 1 && !strings.Contains(le.Msg, "has no main function") || le.Line > lines {
		t.Fatalf("rejection at line %d of %d: %v", le.Line, lines, err)
	}
}
