package gen

import (
	"bytes"
	"context"
	"testing"

	"heisendump/internal/interp"
	"heisendump/internal/sched"
)

// testSeeds is the seed range the generator's own invariants are
// pinned over. It deliberately covers the CI fuzz range's start.
const testSeeds = 60

// TestSameSeedByteIdentical: Generate is a pure function of the seed —
// no wall clock, no global rand — so regenerating must be
// byte-identical, with identical ground truth and metadata.
func TestSameSeedByteIdentical(t *testing.T) {
	for seed := int64(1); seed <= testSeeds; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.Source != b.Source {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if a.Name != b.Name || a.Reason != b.Reason || a.SiteFunc != b.SiteFunc || a.Threads != b.Threads {
			t.Fatalf("seed %d: ground truth differs across generations", seed)
		}
	}
}

// TestEveryProgramCompiles: every emitted program passes lang.Parse
// (which runs lang.Check) and ir.Compile, instrumented and not.
func TestEveryProgramCompiles(t *testing.T) {
	for seed := int64(1); seed <= testSeeds; seed++ {
		p := Generate(seed)
		if _, err := p.Compile(true); err != nil {
			t.Fatalf("seed %d:\n%s\n%v", seed, p.Source, err)
		}
		if _, err := p.Compile(false); err != nil {
			t.Fatalf("seed %d (uninstrumented): %v", seed, err)
		}
	}
}

// TestEveryProgramIsAHeisenbug: the deterministic cooperative run of
// every generated program completes cleanly (the seeded bug never
// fires on the canonical schedule), and the thread metadata matches
// the runtime.
func TestEveryProgramIsAHeisenbug(t *testing.T) {
	for seed := int64(1); seed <= testSeeds; seed++ {
		p := Generate(seed)
		prog := p.MustCompile(true)
		m := interp.New(prog, p.Input)
		m.MaxSteps = 1_000_000
		res := sched.Run(m, sched.NewCooperative())
		if res.Outcome() != sched.OutcomeDone {
			t.Fatalf("seed %d (%s): cooperative run %v (%v)", seed, p.Name, res.Outcome(), res.Err())
		}
		if len(m.Threads) != p.Threads {
			t.Fatalf("seed %d: %d threads at runtime, metadata says %d", seed, len(m.Threads), p.Threads)
		}
	}
}

// TestWitnessCrashesDeterministically: every generated bug has a
// witness interleaving that crashes at the seeded site, and replaying
// it twice crashes identically (same thread, PC and reason both
// times).
func TestWitnessCrashesDeterministically(t *testing.T) {
	for seed := int64(1); seed <= testSeeds; seed++ {
		p := Generate(seed)
		prog := p.MustCompile(true)
		w, err := FindWitness(context.Background(), p, prog, defaultWitnessSeeds)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, p.Name, err)
		}
		// FindWitness already replayed once; replay again to pin
		// determinism of the replay itself.
		if err := ReplayWitness(p, prog, w); err != nil {
			t.Fatalf("seed %d (%s): second replay: %v", seed, p.Name, err)
		}
	}
}

// TestShrinkReachesLocalMinimum: the shrinker strictly reduces a spec
// under a predicate and stops at a local minimum where no single move
// preserves it. The synthetic predicate — "an atom bug with at least
// one Mill filler thread" — lets the test pin the exact minimum.
func TestShrinkReachesLocalMinimum(t *testing.T) {
	spec := Spec{
		Seed: 999,
		Bug:  BugSpec{Kind: Atomicity, Iters: 4, Pad: 3},
		Fillers: []FillerSpec{
			{Kind: BarrierPhase, Threads: 2, Iters: 5},
			{Kind: Mill, Threads: 2, Iters: 5},
			{Kind: ProducerConsumer, Threads: 2, Iters: 4},
		},
	}
	calls := 0
	keep := func(p *Program) bool {
		calls++
		if p.Kind != Atomicity {
			return false
		}
		for _, f := range p.Spec.Fillers {
			if f.Kind == Mill && f.Threads >= 1 {
				return true
			}
		}
		return false
	}
	min := Shrink(spec, keep)
	if len(min.Fillers) != 1 || min.Fillers[0].Kind != Mill {
		t.Fatalf("shrink kept %+v, want only the Mill filler", min.Fillers)
	}
	if min.Fillers[0].Threads != 1 || min.Fillers[0].Iters != 1 {
		t.Fatalf("Mill not minimized: %+v", min.Fillers[0])
	}
	if min.Bug.Pad != 1 || min.Bug.Iters != 1 {
		t.Fatalf("bug parameters not minimized: %+v", min.Bug)
	}
	if calls == 0 {
		t.Fatal("predicate never invoked")
	}
	// The minimum renders and compiles like any generator product.
	if _, err := Build(min).Compile(true); err != nil {
		t.Fatalf("shrunken spec does not compile: %v", err)
	}
}

// TestCorpusRoundTrip: Write/ReadCorpus round-trips entries exactly,
// and VerifyEntry accepts regenerable entries while rejecting
// tampered ones.
func TestCorpusRoundTrip(t *testing.T) {
	var entries []Entry
	for seed := int64(1); seed <= 5; seed++ {
		p := Generate(seed)
		prog := p.MustCompile(true)
		w, err := FindWitness(context.Background(), p, prog, defaultWitnessSeeds)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, EntryFor(&Verdict{Program: p, Witness: w}))
	}

	var buf bytes.Buffer
	if err := WriteCorpus(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("round-trip: %d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i].Seed != entries[i].Seed || got[i].Source != entries[i].Source ||
			got[i].Reason != entries[i].Reason || len(got[i].Witness) != len(entries[i].Witness) {
			t.Fatalf("entry %d differs after round-trip", i)
		}
		if _, err := VerifyEntry(got[i]); err != nil {
			t.Fatalf("entry %d fails verification: %v", i, err)
		}
	}

	// A tampered source must be rejected (the corpus detects generator
	// drift rather than absorbing it).
	bad := got[0]
	bad.Source += "// tampered\n"
	if _, err := VerifyEntry(bad); err == nil {
		t.Fatal("VerifyEntry accepted a tampered source")
	}
	// A witness that no longer crashes must be rejected.
	bad = got[0]
	bad.Witness = []int{0}
	if _, err := VerifyEntry(bad); err == nil {
		t.Fatal("VerifyEntry accepted a dead witness")
	}
	// So must a witness with one step moved to another thread, although
	// this bent schedule of gen-order-1 still crashes at the seeded
	// site: the witness seed fixes every step.
	bad = got[0]
	bad.Witness = append([]int(nil), got[0].Witness...)
	bad.Witness[18] = (bad.Witness[18] + 1) % bad.Threads
	if _, err := VerifyEntry(bad); err == nil {
		t.Fatalf("VerifyEntry accepted %s's witness with step 18 moved to thread %d", bad.Name, bad.Witness[18])
	}
}
