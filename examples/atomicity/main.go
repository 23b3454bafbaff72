// Atomicity: walk the paper's §6 case study — apache bug 21285, the
// mod_mem_cache two-step insertion — comparing the three search
// configurations (plain CHESS, chessX+dep, chessX+temporal).
//
//	go run ./examples/atomicity
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"heisendump"
)

func main() {
	w := heisendump.WorkloadByName("apache-1")
	prog, err := w.Compile(true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bug %s (%s): %s\n\n", w.Name, w.BugID, w.Description)

	type cfg struct {
		name string
		opt  heisendump.Option
	}
	configs := []cfg{
		{"chess (undirected)", heisendump.WithPlainChess(true)},
		{"chessX+dep", heisendump.WithHeuristic(heisendump.Dependence)},
		{"chessX+temporal", heisendump.WithHeuristic(heisendump.Temporal)},
	}

	for _, c := range configs {
		s := heisendump.NewCompiled(prog, w.Input, c.opt, heisendump.WithTrialBudget(2000))
		rep, err := s.Reproduce(context.Background())
		if err != nil && !errors.Is(err, heisendump.ErrScheduleNotFound) {
			log.Fatal(err)
		}
		status := "reproduced"
		if !rep.Search.Found {
			status = "CUT OFF"
		}
		fmt.Printf("%-20s %5d tries  %10v  %s\n",
			c.name, rep.Search.Tries, rep.Search.Elapsed, status)
		if c.name == "chessX+temporal" && rep.Search.Found {
			fmt.Println("\nfailure-inducing schedule:")
			for _, ap := range rep.Search.Schedule {
				fmt.Printf("  preempt thread %d at %v (sync #%d, lock %q) -> thread %d\n",
					ap.Candidate.Thread, ap.Candidate.Kind, ap.Candidate.Seq,
					ap.Candidate.Lock, ap.SwitchTo)
			}
			fmt.Printf("\ncritical shared variables (%d of %d shared):\n",
				len(rep.Analysis.CSVs), rep.Analysis.Diff.SharedCompared)
			for _, csv := range rep.Analysis.CSVs {
				fmt.Printf("  %-20s failing=%v passing=%v\n", csv.Path, csv.A, csv.B)
			}
		}
	}
}
