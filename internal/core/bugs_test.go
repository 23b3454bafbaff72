package core_test

import (
	"context"
	"errors"
	"testing"

	"heisendump/internal/core"
	"heisendump/internal/slicing"
	"heisendump/internal/workloads"
)

// TestAllBugsReproduceWithTemporalHeuristic runs the full pipeline —
// provoke, dump, reverse-engineer, align, diff, search — on every
// Table 2 bug with the chessX+temporal configuration and requires the
// failure-inducing schedule to be found.
func TestAllBugsReproduceWithTemporalHeuristic(t *testing.T) {
	for _, w := range workloads.Bugs() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Compile(true)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			p := core.NewPipeline(prog, w.Input, core.Config{
				Heuristic: slicing.Temporal,
				MaxTries:  3000,
			})
			rep, err := p.RunContext(context.Background())
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}
			if !rep.Search.Found {
				t.Fatalf("not reproduced in %d tries (align=%v, csvs=%d, cands=%d)",
					rep.Search.Tries, rep.Analysis.AlignKind,
					len(rep.Analysis.CSVs), len(rep.Analysis.Candidates))
			}
			t.Logf("%s: %d tries, align=%v, index len=%d, csvs=%d/%d shared, cands=%d",
				w.Name, rep.Search.Tries, rep.Analysis.AlignKind, rep.Analysis.IndexLen,
				len(rep.Analysis.CSVs), rep.Analysis.Diff.SharedCompared,
				len(rep.Analysis.Candidates))
		})
	}
}

// TestAllBugsReproduceWithDependenceHeuristic exercises the
// chessX+dep configuration on every bug.
func TestAllBugsReproduceWithDependenceHeuristic(t *testing.T) {
	for _, w := range workloads.Bugs() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Compile(true)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			p := core.NewPipeline(prog, w.Input, core.Config{
				Heuristic: slicing.Dependence,
				MaxTries:  3000,
			})
			rep, err := p.RunContext(context.Background())
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}
			if !rep.Search.Found {
				t.Fatalf("not reproduced in %d tries", rep.Search.Tries)
			}
			t.Logf("%s: %d tries", w.Name, rep.Search.Tries)
		})
	}
}

// TestEnhancedBeatsPlainChess measures the central Table 4 claim:
// across the bug suite the enhanced search needs far fewer tries than
// undirected CHESS. Plain CHESS is capped (the analogue of the paper's
// 18-hour cutoff), so its try counts are lower bounds.
func TestEnhancedBeatsPlainChess(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison sweep is slow")
	}
	const cap = 2000
	totalEnhanced, totalPlain := 0, 0
	for _, w := range workloads.Bugs() {
		prog, err := w.Compile(true)
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		runCfg := func(cfg core.Config) (bool, int) {
			p := core.NewPipeline(prog, w.Input, cfg)
			rep, err := p.RunContext(context.Background())
			if err != nil && !errors.Is(err, core.ErrScheduleNotFound) {
				t.Fatalf("%s: pipeline: %v", w.Name, err)
			}
			return rep.Search.Found, rep.Search.Tries
		}
		foundX, triesX := runCfg(core.Config{Heuristic: slicing.Temporal, MaxTries: cap})
		foundP, triesP := runCfg(core.Config{PlainChess: true, MaxTries: cap})
		if !foundX {
			t.Errorf("%s: enhanced search failed in %d tries", w.Name, triesX)
			continue
		}
		totalEnhanced += triesX
		totalPlain += triesP
		t.Logf("%s: chessX=%d tries, plain=%d tries (found=%v)", w.Name, triesX, triesP, foundP)
	}
	if totalEnhanced*2 >= totalPlain {
		t.Errorf("enhanced search (%d total tries) not clearly better than plain CHESS (%d)",
			totalEnhanced, totalPlain)
	}
}
