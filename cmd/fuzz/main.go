// Command fuzz drives the generative workload subsystem: it
// manufactures seeded concurrency-bug programs (internal/gen),
// validates each one with the differential pipeline oracle — the
// witness interleaving crashes at the seeded site, the full
// reproduction pipeline agrees bit-for-bit across workers {1,4}, and
// the static-guided pair agrees across workers {1,4} too — and shrinks
// every failure to a minimal counterexample.
//
// Usage:
//
//	fuzz -n 100 -seed 42              # check seeds 42..141
//	fuzz -n 100 -seed 1 -short       # CI budgets
//	fuzz -n 50 -out corpus.jsonl     # persist programs + ground truth
//	fuzz -in corpus.jsonl            # replay a saved corpus
//	fuzz -in corpus.jsonl -full      # replay + full oracle per entry
//	fuzz -v                          # one line per seed
//
// A corpus file (-out/-in) round-trips generated programs, seeds,
// ground truth and the discovered artifacts (witness schedule,
// pipeline outcome) to disk, so CI and developers replay the same
// corpus instead of re-discovering it — and a generator change that
// silently alters a persisted program is caught, not absorbed.
//
// When a seeded bug is missed by the pipeline, or a configuration
// diverges, fuzz shrinks the generating spec while the failure
// persists and writes the minimal program to -faildir as a
// ready-to-register workload file (a .go.txt snippet for
// internal/workloads; drop the .txt to register it).
//
// Exit status: 0 when every seed reproduced deterministically; 1 on a
// determinism violation, generator invariant breach or internal error;
// 2 when seeded bugs were missed (each reported with a shrunken
// counterexample).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"heisendump/internal/gen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fuzz: ")

	n := flag.Int("n", 100, "number of seeds to check")
	seed := flag.Int64("seed", 1, "first seed (seeds seed..seed+n-1 are checked)")
	short := flag.Bool("short", false, "reduced budgets for CI (same checks, smaller search/stress/witness caps)")
	outPath := flag.String("out", "", "write the checked programs + ground truth as a JSON-lines corpus")
	inPath := flag.String("in", "", "replay a saved corpus instead of generating (regenerate byte-identical, replay witnesses)")
	full := flag.Bool("full", false, "with -in: additionally run the full differential oracle on every entry")
	failDir := flag.String("faildir", "fuzz-failures", "directory for shrunken counterexample workload files")
	maxTries := flag.Int("maxtries", 0, "override the per-configuration schedule-search budget")
	verbose := flag.Bool("v", false, "print one line per seed")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := &gen.Oracle{TrialBudget: *maxTries}
	if *short {
		if o.TrialBudget == 0 {
			o.TrialBudget = 1500
		}
		o.StressBudget = 3000
		o.WitnessSeeds = 1500
	}

	if *inPath != "" {
		os.Exit(replayCorpus(ctx, o, *inPath, *full, *verbose))
	}
	os.Exit(run(ctx, o, *seed, *n, *outPath, *failDir, *verbose))
}

// run checks seeds seed..seed+n-1 and reports.
func run(ctx context.Context, o *gen.Oracle, seed int64, n int, outPath, failDir string, verbose bool) int {
	var entries []gen.Entry
	violations, missed, reproduced := 0, 0, 0
	checked := 0
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			log.Printf("cancelled after %d of %d seeds", checked, n)
			break
		}
		s := seed + int64(i)
		p := gen.Generate(s)
		v, err := o.Check(ctx, p)
		if err != nil {
			if ctx.Err() != nil {
				continue
			}
			log.Printf("%s: %v", p.Name, err)
			checked++
			violations++
			continue
		}
		checked++
		switch {
		case len(v.Divergences) > 0:
			violations++
			fmt.Printf("%s: FAIL\n", p.Name)
			for _, d := range v.Divergences {
				fmt.Printf("  %s\n", d)
			}
			reportCounterexample(o, p, failDir, "divergence", keepDiverging(ctx, o))
		case v.Missed:
			missed++
			fmt.Printf("%s: MISSED (bug is real: witness seed %d, %d steps; pipeline: %s after %d tries)\n",
				p.Name, v.Witness.Seed, len(v.Witness.Schedule), v.Outcomes[0].Failure, v.Outcomes[0].Tries)
			reportCounterexample(o, p, failDir, "miss", keepMiss(ctx, o))
		default:
			reproduced++
			if verbose {
				fmt.Printf("%s: ok (witness seed %d, reproduced in %d tries)\n",
					p.Name, v.Witness.Seed, v.Outcomes[0].Tries)
			}
			entries = append(entries, gen.EntryFor(v))
		}
	}
	if outPath != "" && ctx.Err() == nil {
		f, err := os.Create(outPath)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer f.Close()
		if err := gen.WriteCorpus(f, entries); err != nil {
			log.Print(err)
			return 1
		}
		fmt.Printf("corpus: %d entries written to %s\n", len(entries), outPath)
	}
	fmt.Printf("checked %d seeds: %d reproduced deterministically, %d missed, %d violations\n",
		checked, reproduced, missed, violations)
	switch {
	case violations > 0 || ctx.Err() != nil:
		return 1
	case missed > 0:
		return 2
	}
	return 0
}

// keepMiss is the shrink predicate for an unreproduced bug: the
// candidate still has a witness (the bug is still real) and the
// canonical pipeline configuration still fails to reproduce it.
func keepMiss(ctx context.Context, o *gen.Oracle) func(*gen.Program) bool {
	return func(p *gen.Program) bool {
		v, err := o.Check(ctx, p)
		if err != nil || v == nil {
			return false
		}
		return v.Witness != nil && v.Missed && len(v.Divergences) == 0
	}
}

// keepDiverging is the shrink predicate for any oracle divergence —
// a determinism violation or a generator invariant breach (no witness,
// cooperative crash). Either way the candidate still fails the oracle,
// which is the property worth minimizing.
func keepDiverging(ctx context.Context, o *gen.Oracle) func(*gen.Program) bool {
	return func(p *gen.Program) bool {
		v, err := o.Check(ctx, p)
		if err != nil || v == nil {
			return false
		}
		return len(v.Divergences) > 0
	}
}

// reportCounterexample shrinks the failing program (when the failure
// predicate is stable enough to shrink against) and writes the result
// as a ready-to-register workload file.
func reportCounterexample(o *gen.Oracle, p *gen.Program, failDir, why string, keep func(*gen.Program) bool) {
	min, shrunk := p, false
	if keep(p) { // shrink only when the predicate is stable on the original
		min = gen.Build(gen.Shrink(p.Spec, keep))
		shrunk = true
	}
	if err := os.MkdirAll(failDir, 0o755); err != nil {
		log.Print(err)
		return
	}
	path := filepath.Join(failDir, fmt.Sprintf("%s.go.txt", min.Name))
	if err := os.WriteFile(path, []byte(workloadFile(min, why, shrunk)), 0o644); err != nil {
		log.Print(err)
		return
	}
	// Also print the program itself: on an ephemeral CI runner the
	// file is gone when the job ends, and the build log is all the
	// developer gets. A shrunken Spec is not derivable from any seed,
	// so the source below (and the file) is the only record of it.
	if shrunk {
		fmt.Printf("  shrunken counterexample (%d threads): %s\n", min.Threads, path)
		fmt.Printf("  minimal program (Generate(%d) yields the unshrunken original):\n", p.Seed)
	} else {
		fmt.Printf("  counterexample (%d threads, unshrunken: failure not stable under re-check): %s\n", min.Threads, path)
		fmt.Printf("  regenerate with seed %d, or register directly:\n", p.Seed)
	}
	for _, line := range strings.Split(strings.TrimRight(min.Source, "\n"), "\n") {
		fmt.Printf("    %s\n", line)
	}
}

// workloadFile renders a generated program as an internal/workloads
// registration snippet — the hand-off format for turning a fuzz
// finding into a permanent regression workload.
func workloadFile(p *gen.Program, why string, shrunk bool) string {
	ident := fmt.Sprintf("%d", p.Seed)
	if p.Seed < 0 {
		ident = fmt.Sprintf("N%d", -p.Seed) // a valid Go identifier fragment
	}
	provenance := fmt.Sprintf("seed %d", p.Seed)
	if shrunk {
		provenance = fmt.Sprintf("shrunk from seed %d's program; Generate(%d) yields the unshrunken original", p.Seed, p.Seed)
	}
	return fmt.Sprintf(`// Code generated by cmd/fuzz (%s counterexample, %s).
// Move into internal/workloads (dropping the .txt extension) to
// register it; then add it to the pinned tests it should join.
package workloads

import "heisendump/internal/interp"

var GenFail%s = register(&Workload{
	Name:        %q,
	BugID:       "gen-%d",
	Kind:        %q,
	Description: %q,
	Threads:     %d,
	Source: `+"`\n%s`"+`,
	Input: &interp.Input{},
})
`, why, provenance, ident, p.Name+"-min", p.Seed, p.Kind.String(), p.Description(), p.Threads, p.Source)
}

// replayCorpus verifies a saved corpus against the current tree.
func replayCorpus(ctx context.Context, o *gen.Oracle, path string, full, verbose bool) int {
	f, err := os.Open(path)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer f.Close()
	entries, err := gen.ReadCorpus(f)
	if err != nil {
		log.Print(err)
		return 1
	}
	bad := 0
	for _, e := range entries {
		if ctx.Err() != nil {
			log.Print("cancelled")
			return 1
		}
		p, err := gen.VerifyEntry(e)
		if err != nil {
			fmt.Printf("%s: FAIL %v\n", e.Name, err)
			bad++
			continue
		}
		if full {
			// Replay at the budgets the entry was recorded under: a
			// search truncated by a smaller budget is not outcome
			// drift. Entries from older corpora without budgets fall
			// back to the command-line oracle's.
			eo := *o
			if e.TrialBudget > 0 {
				eo.TrialBudget = e.TrialBudget
			}
			if e.StressBudget > 0 {
				eo.StressBudget = e.StressBudget
			}
			v, err := eo.Check(ctx, p)
			if err != nil {
				if ctx.Err() != nil {
					log.Print("cancelled")
					return 1
				}
				log.Printf("%s: %v", e.Name, err)
				bad++
				continue
			}
			if len(v.Divergences) > 0 || v.Missed {
				fmt.Printf("%s: FAIL divergences=%v missed=%v\n", e.Name, v.Divergences, v.Missed)
				bad++
				continue
			}
			if v.Outcomes[0].Found != e.Found || v.Outcomes[0].Tries != e.Tries {
				fmt.Printf("%s: FAIL outcome drifted: found=%v tries=%d, corpus has found=%v tries=%d\n",
					e.Name, v.Outcomes[0].Found, v.Outcomes[0].Tries, e.Found, e.Tries)
				bad++
				continue
			}
		}
		if verbose {
			fmt.Printf("%s: ok\n", e.Name)
		}
	}
	fmt.Printf("corpus: %d entries, %d failed\n", len(entries), bad)
	if bad > 0 {
		return 1
	}
	return 0
}
