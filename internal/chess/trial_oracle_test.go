package chess_test

import (
	"context"
	"testing"

	"heisendump/internal/chess"
	"heisendump/internal/core"
	"heisendump/internal/gen"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/workloads"
)

// TestTrialsMatchReferenceExecutor pins the search's trial executor —
// a preemption chooser on the sched.Runner loop — against the trial
// loop it replaced (chess.TrialOracle): the seven Table 2 bugs and
// generated programs 1-50, each analyzed by the pipeline, guided and
// unguided, over the first worklist ranks' full odometer walks at the
// search's own per-run bound and at bounds that cut runs mid-way
// (including right after a sync instruction).
func TestTrialsMatchReferenceExecutor(t *testing.T) {
	type subject struct {
		name  string
		prog  *ir.Program
		input *interp.Input
	}
	var subs []subject
	for _, w := range workloads.Bugs() {
		cp, err := w.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, subject{w.Name, cp, w.Input})
	}
	genSeeds := int64(50)
	if testing.Short() {
		genSeeds = 10
	}
	for seed := int64(1); seed <= genSeeds; seed++ {
		p := gen.Generate(seed)
		cp, err := p.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, subject{p.Name, cp, p.Input})
	}
	total := 0
	for _, sub := range subs {
		p := core.NewPipeline(sub.prog, sub.input, core.Config{Workers: 1})
		fail, err := p.ProvokeFailureContext(context.Background())
		if err != nil {
			t.Fatalf("%s: provoke: %v", sub.name, err)
		}
		an, err := p.AnalyzeContext(context.Background(), fail)
		if err != nil {
			t.Fatalf("%s: analyze: %v", sub.name, err)
		}
		for _, guided := range []bool{true, false} {
			s := p.Searcher(fail, an)
			s.Opts.Guided, s.Opts.Weighted = guided, guided
			pairs, diff := chess.TrialOracle(s, 40, 12, []int64{1, 7, 50, 1023})
			if diff != "" {
				t.Fatalf("%s guided=%v: %s", sub.name, guided, diff)
			}
			total += pairs
		}
	}
	t.Logf("%d trial pairs compared", total)
}

// TestTrialConsultationsFollowPreemptions: a trial asks its chooser for
// a thread where a preemption of its combination can fire and where a
// thread blocks or finishes, not at every sync operation. Over the
// first 50 plain-CHESS ranks of apache-2, whose passing run completes
// over a hundred sync operations, no trial asks more than 12 times.
func TestTrialConsultationsFollowPreemptions(t *testing.T) {
	w := workloads.ByName("apache-2")
	cp, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(cp, w.Input, core.Config{Workers: 1})
	fail, err := p.ProvokeFailureContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	an, err := p.AnalyzeContext(context.Background(), fail)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Searcher(fail, an)
	s.Opts.Guided, s.Opts.Weighted = false, false
	trials, most, total, diff := chess.TrialConsultations(s, 50)
	if diff != "" {
		t.Fatal(diff)
	}
	if most > 12 {
		t.Fatalf("a trial asked its chooser %d times (%d trials, %d consultations)", most, trials, total)
	}
	t.Logf("%d trials, %.1f consultations per trial, at most %d", trials, float64(total)/float64(trials), most)
}

// TestWarmTrialAllocatesNothing: once a worker's machine and chooser
// are warm, a trial allocates nothing. The trial is apache-2's under
// plain CHESS at the first rank whose two preemptions both fire and
// whose run completes with objects allocated by main and the rotation
// thread and entries appended through calls (written > 0).
func TestWarmTrialAllocatesNothing(t *testing.T) {
	w := workloads.ByName("apache-2")
	cp, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(cp, w.Input, core.Config{Workers: 1})
	fail, err := p.ProvokeFailureContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	an, err := p.AnalyzeContext(context.Background(), fail)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Searcher(fail, an)
	s.Opts.Guided, s.Opts.Weighted = false, false
	allocs, applied, objects, ok := chess.WarmTrialAllocs(s, 1000, 2, 3, "written")
	if !ok {
		t.Fatal("no rank among the first 1000 fires two preemptions and completes with objects and calls")
	}
	if allocs != 0 {
		t.Fatalf("a warm trial allocates %v times (%d preemptions applied, %d objects)", allocs, applied, objects)
	}
	t.Logf("%d preemptions applied, %d objects, 0 allocations", applied, objects)
}
