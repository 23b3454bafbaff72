package core_test

import (
	"context"
	"testing"

	"heisendump/internal/core"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
)

// TestProvokeFailureOnHealthyProgram: stress on a race-free program
// exhausts its budget with a clear error.
func TestProvokeFailureOnHealthyProgram(t *testing.T) {
	cp, err := ir.Compile(lang.MustParse(`
program healthy;
global int n;
lock L;
func main() {
    spawn inc();
    spawn inc();
}
func inc() {
    acquire(L);
    n = n + 1;
    release(L);
}
`), ir.Options{InstrumentLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(cp, nil, core.Config{MaxStressAttempts: 50})
	if _, err := p.ProvokeFailureContext(context.Background()); err == nil {
		t.Fatal("expected stress to give up on a race-free program")
	}
}

// TestConfigDefaults: zero-value config acquires sane defaults.
func TestConfigDefaults(t *testing.T) {
	cp, err := ir.Compile(lang.MustParse(`
program dflt;
func main() {
    output 1;
}
`), ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(cp, nil, core.Config{})
	if p.Cfg.Bound != 2 {
		t.Fatalf("default bound %d, want 2", p.Cfg.Bound)
	}
	if p.Cfg.MaxStressAttempts <= 0 {
		t.Fatalf("missing defaults: %+v", p.Cfg)
	}
	m := p.NewMachine()
	if m.MaxSteps != core.StepLimit {
		t.Fatal("machine step limit not applied")
	}
}

// TestAlignmentMethodStrings covers the fmt helpers.
func TestAlignmentMethodStrings(t *testing.T) {
	if core.AlignByIndex.String() != "execution-index" {
		t.Fatal(core.AlignByIndex.String())
	}
	if core.AlignByInstructionCount.String() != "instruction-count" {
		t.Fatal(core.AlignByInstructionCount.String())
	}
}
