package gen

import (
	"context"
	"testing"

	"heisendump/internal/interp"
)

// oracleSeeds is the range the differential oracle is pinned over in
// the unit tests; cmd/fuzz (and CI's short fuzz job) sweeps further.
const oracleSeeds = 40

// TestOracleAcrossSeeds: every generated bug in the range is real
// (witnessed), statically flagged (the recall gate), reproduced by
// the pipeline, and bit-identical across the determinism matrix —
// workers {1,4} plus the static-guided pair.
func TestOracleAcrossSeeds(t *testing.T) {
	o := &Oracle{}
	ctx := context.Background()
	for seed := int64(1); seed <= oracleSeeds; seed++ {
		p := Generate(seed)
		v, err := o.Check(ctx, p)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, p.Name, err)
		}
		if len(v.Divergences) > 0 {
			t.Errorf("seed %d (%s): %v", seed, p.Name, v.Divergences)
		}
		if v.Missed {
			t.Errorf("seed %d (%s): seeded bug not reproduced (pipeline: %s after %d tries)",
				seed, p.Name, v.Outcomes[0].Failure, v.Outcomes[0].Tries)
		}
		// the worker legs and the static-guidance pair.
		if want := len(o.workers()) + 2; len(v.Outcomes) != want {
			t.Fatalf("seed %d: %d outcomes checked, want %d", seed, len(v.Outcomes), want)
		}
		if len(v.StaticFlagged) == 0 {
			t.Errorf("seed %d (%s): static analyzer flagged nothing", seed, p.Name)
		}
	}
}

// TestOracleVerdictIsDeterministic: checking the same program twice
// yields the same fingerprint — the oracle itself obeys the contract
// it enforces.
func TestOracleVerdictIsDeterministic(t *testing.T) {
	o := &Oracle{}
	ctx := context.Background()
	p := Generate(11)
	a, err := o.Check(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Check(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		if a.Outcomes[i].key() != b.Outcomes[i].key() {
			t.Errorf("outcome %d differs across runs: %s vs %s", i, a.Outcomes[i].key(), b.Outcomes[i].key())
		}
	}
	if a.Witness.Seed != b.Witness.Seed || len(a.Witness.Schedule) != len(b.Witness.Schedule) {
		t.Error("witness differs across runs")
	}
}

// TestOracleFlagsNonHeisenbug: a program that crashes on the
// cooperative schedule is a generator invariant violation, reported as
// a divergence rather than fed to the pipeline.
func TestOracleFlagsNonHeisenbug(t *testing.T) {
	p := &Program{
		Name:     "always-crashes",
		Input:    &interp.Input{},
		Reason:   "assertion failed: genbug-test",
		SiteFunc: "main",
		Source: `
program alwayscrashes;

global int x;

func main() {
    assert(x == 1, "genbug-test");
}
`,
	}
	v, err := (&Oracle{}).Check(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Divergences) == 0 {
		t.Fatal("cooperative crash not flagged")
	}
}
