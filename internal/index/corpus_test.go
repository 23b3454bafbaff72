package index_test

import (
	"testing"

	"heisendump/internal/coredump"
	"heisendump/internal/ctrldep"
	"heisendump/internal/index"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
	"heisendump/internal/workloads"
)

// TestTrackerBalancedOnCorpusPrograms runs the online EI tracker over
// the three large generated corpora (thousands of statements of
// nested conditionals, loops, gotos and short-circuit chains) and
// checks the fundamental stack invariant: every region entered is
// closed, leaving an empty index stack at exit.
func TestTrackerBalancedOnCorpusPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus execution is slow")
	}
	for _, spec := range workloads.CorpusSpecs() {
		prog, err := workloads.GenerateCorpus(spec)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := ir.Compile(prog, ir.Options{InstrumentLoops: true})
		if err != nil {
			t.Fatal(err)
		}
		pdeps := ctrldep.AnalyzeProgram(cp)
		tr := index.NewTracker(cp, pdeps)
		m := interp.New(cp, nil)
		m.MaxSteps = 20_000_000
		m.Hooks = tr
		res := sched.Run(m, sched.NewCooperative())
		if res.Crashed {
			t.Fatalf("%s: corpus crashed: %v", spec.Name, res.Crash)
		}
		if !m.Done() {
			t.Fatalf("%s: corpus did not finish (steps %d)", spec.Name, m.TotalSteps)
		}
		cur := tr.Current(0, ir.PC{})
		if len(cur.Entries) != 0 {
			t.Fatalf("%s: index stack not empty at exit: %d entries", spec.Name, len(cur.Entries))
		}
	}
}

// TestReverseOnCorpusCrashSites injects crashes at pseudo-random
// points of corpus functions (by patching an assignment into an
// assert-false) and verifies the reverse-engineered index matches the
// online tracker at each crash — Algorithm 1 exercised over
// deeply-nested generated control flow, including goto landings and
// short-circuit chains.
func TestReverseOnCorpusCrashSites(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus execution is slow")
	}
	spec := workloads.CorpusSpecs()[0]
	prog, err := workloads.GenerateCorpus(spec)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ir.Compile(prog, ir.Options{InstrumentLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	pdeps := ctrldep.AnalyzeProgram(cp)

	// First, find instructions that actually execute, with a counting
	// hook, so the injected crashes are reachable.
	type site struct{ pc ir.PC }
	counter := &execCounter{seen: map[ir.PC]bool{}}
	m := interp.New(cp, nil)
	m.MaxSteps = 20_000_000
	m.Hooks = counter
	if res := sched.Run(m, sched.NewCooperative()); res.Crashed {
		t.Fatalf("corpus crashed: %v", res.Crash)
	}

	var sites []site
	for pc := range counter.seen {
		in := cp.InstrAt(pc)
		if in.Op == ir.OpAssign && !in.Synth && pc.F != cp.FuncIndex("main") {
			sites = append(sites, site{pc})
		}
	}
	if len(sites) < 50 {
		t.Fatalf("too few executable assignment sites: %d", len(sites))
	}

	checked := 0
	for i, s := range sites {
		if i%7 != 0 || checked >= 40 { // sample for speed
			continue
		}
		in := cp.InstrAt(s.pc)
		saved := *in
		// Patch: crash when this statement executes.
		in.Op = ir.OpAssert
		in.SrcCond = &lang.BoolLit{Value: false}
		in.Msg = "injected"
		refresh(t, cp) // keep the bytecode engine in sync with the patch

		tr := index.NewTracker(cp, pdeps)
		m := interp.New(cp, nil)
		m.MaxSteps = 20_000_000
		m.Hooks = tr
		res := sched.Run(m, sched.NewCooperative())
		if res.Crashed && res.Crash.PC == s.pc {
			dump := captureCrash(t, m)
			online := tr.CurrentCanonical(res.Crash.ThreadID, res.Crash.PC)
			reversed, err := index.Reverse(cp, pdeps, dump)
			if err != nil {
				t.Fatalf("site %v: reverse: %v", s.pc, err)
			}
			if !matchesModuloApproximation(cp, pdeps, reversed, online) {
				t.Fatalf("site %v (%s): index mismatch\n reversed: %s\n online:   %s",
					s.pc, cp.FormatPC(s.pc), reversed.Format(cp), online.Format(cp))
			}
			checked++
		}
		*in = saved
		refresh(t, cp)
	}
	if checked < 20 {
		t.Fatalf("only %d crash sites checked", checked)
	}
	t.Logf("validated %d injected crash sites", checked)
}

// matchesModuloApproximation compares a reverse-engineered index with
// the online one, tolerating the documented common-ancestor
// approximation at goto landings: the reversed index may be a
// subsequence of the online index whose missing entries are exactly
// non-aggregatable fine structure. An exact match short-circuits.
func matchesModuloApproximation(cp *ir.Program, pdeps *ctrldep.ProgramDeps, reversed, online *index.Index) bool {
	if reversed.Equal(online) {
		return true
	}
	if reversed.Thread != online.Thread || reversed.Leaf != online.Leaf {
		return false
	}
	// Subsequence check: every reversed entry must appear, in order, in
	// the online index.
	j := 0
	for _, e := range reversed.Entries {
		found := false
		for j < len(online.Entries) {
			if online.Entries[j] == e {
				found = true
				j++
				break
			}
			j++
		}
		if !found {
			return false
		}
	}
	return true
}

type execCounter struct {
	seen map[ir.PC]bool
}

func (c *execCounter) BeforeInstr(t *interp.Thread, pc ir.PC) { c.seen[pc] = true }
func (c *execCounter) OnBranch(*interp.Thread, ir.PC, bool)   {}
func (c *execCounter) OnEnterFunc(*interp.Thread, int)        {}
func (c *execCounter) OnExitFunc(*interp.Thread, int)         {}
func (c *execCounter) OnRead(*interp.Thread, interp.VarID)    {}
func (c *execCounter) OnWrite(*interp.Thread, interp.VarID)   {}

// refresh recompiles cp's bytecode after an instruction patch.
func refresh(t *testing.T, cp *ir.Program) {
	t.Helper()
	if err := cp.RefreshBytecode(); err != nil {
		t.Fatal(err)
	}
}

func captureCrash(t *testing.T, m *interp.Machine) *coredump.Dump {
	t.Helper()
	d, err := coredump.CaptureCrash(m)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
