package gen_test

import (
	"context"
	"fmt"
	"testing"

	"heisendump"
	"heisendump/internal/gen"
	"heisendump/internal/workloads"
)

// TestSessionMatchesOracleFingerprint runs a generated program through
// the public Session API — the surface real callers use — and checks
// the result agrees bit-for-bit with the oracle's core-layer
// fingerprint for the same configuration. This closes the loop the
// in-package oracle tests leave open: core.Pipeline.RunContext and
// heisendump.Session.Reproduce really are the same computation.
func TestSessionMatchesOracleFingerprint(t *testing.T) {
	ctx := context.Background()
	o := &gen.Oracle{}
	for _, seed := range []int64{3, 9, 10, 15} { // one per bug pattern
		p := gen.Generate(seed)
		v, err := o.Check(ctx, p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(v.Divergences) > 0 || v.Missed {
			t.Fatalf("seed %d: oracle unhappy: %+v", seed, v)
		}

		prog, err := heisendump.CompileSource(p.Source, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			s := heisendump.NewCompiled(prog, p.Input,
				heisendump.WithWorkers(workers),
				heisendump.WithTrialBudget(3000),
				heisendump.WithStressBudget(6000),
			)
			rep, err := s.Reproduce(ctx)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			base := v.Outcomes[0]
			if rep.Search.Found != base.Found || rep.Search.Tries != base.Tries ||
				rep.Search.ScheduleString() != base.Schedule {
				t.Errorf("seed %d workers %d: Session result diverges from oracle fingerprint:\nsession: found=%v tries=%d %s\noracle:  found=%v tries=%d %s",
					seed, workers, rep.Search.Found, rep.Search.Tries, rep.Search.ScheduleString(),
					base.Found, base.Tries, base.Schedule)
			}
		}
	}
}

// TestCuratedWorkloadsMatchGenerator pins the curated registrations in
// internal/workloads to the generator: each one's source is exactly
// Generate(seed) for its recorded seed, so the corpus can never drift
// from the generator that claims to produce it.
func TestCuratedWorkloadsMatchGenerator(t *testing.T) {
	gens := workloads.Generated()
	if len(gens) == 0 {
		t.Fatal("no curated generated workloads registered")
	}
	for _, w := range gens {
		var seed int64
		if _, err := fmt.Sscanf(w.BugID, "gen-%d", &seed); err != nil {
			t.Fatalf("%s: unparsable BugID %q", w.Name, w.BugID)
		}
		p := gen.Generate(seed)
		if p.Source != w.Source {
			t.Errorf("%s: registered source differs from Generate(%d)", w.Name, seed)
		}
		if p.Name != w.Name || p.Threads != w.Threads || p.Kind.String() != w.Kind {
			t.Errorf("%s: registered metadata differs from the generator's", w.Name)
		}
	}
}
