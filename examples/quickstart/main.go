// Quickstart: reproduce the paper's Fig. 1 Heisenbug end to end.
//
// The program provokes the failure under random multicore-style
// interleavings, captures a core dump, reverse engineers the failure
// index, aligns a deterministic re-execution, diffs the dumps to find
// the critical shared variables, and searches for a failure-inducing
// schedule — through the Session API's staged calls, so each phase's
// results print as soon as it completes and a Ctrl-C at any point
// leaves everything printed so far as the partial result.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"heisendump"
)

func main() {
	w := heisendump.WorkloadByName("fig1")
	prog, err := w.Compile(true) // loop-counter instrumentation on
	if err != nil {
		log.Fatal(err)
	}

	// Ctrl-C cancels the context; every Session phase stops
	// cooperatively (the schedule search within one trial).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	s := heisendump.NewCompiled(prog, w.Input,
		heisendump.WithHeuristic(heisendump.Temporal),
		heisendump.WithTrialBudget(1000),
		// WithWorkers sets the schedule-search pool width (0 =
		// GOMAXPROCS). The result is bit-identical for any value:
		// workers claim combinations in deterministic rank order and
		// outcomes fold back in that order.
		heisendump.WithWorkers(0),
	)

	fmt.Println("== production phase: provoke the Heisenbug ==")
	fail, err := s.ProvokeFailure(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash: %s\n", fail.Signature.Reason)
	fmt.Printf("calling context: %s\n", fail.Dump.CallingContext())
	fmt.Printf("core dump: %d bytes (seed %d, %d stress attempts)\n\n",
		fail.DumpBytes, fail.Seed, fail.Attempts)

	fmt.Println("== debugging phase: analyze the dump ==")
	an, err := s.Analyze(ctx, fail)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure index (len %d): %s\n", an.IndexLen, an.FailureIndex.Format(prog))
	fmt.Printf("aligned point: %v after %d steps at %s\n",
		an.AlignKind, an.AlignSteps, prog.FormatPC(an.AlignPC))
	fmt.Printf("dump diff: %d vars compared, %d differ; CSVs:\n",
		an.Diff.VarsCompared, len(an.Diff.Diffs))
	for _, c := range an.CSVs {
		fmt.Printf("  %-12s failing=%v passing=%v\n", c.Path, c.A, c.B)
	}

	fmt.Println("\n== reproduction phase: search for the schedule ==")
	res, err := s.Search(ctx, fail, an)
	if err != nil {
		log.Fatalf("not reproduced in %d tries: %v", res.Tries, err)
	}
	fmt.Printf("reproduced after %d tries (%d executed) in %v\n",
		res.Tries, res.TrialsExecuted, res.Elapsed)
	for _, ap := range res.Schedule {
		fmt.Printf("  preempt thread %d at %v (sync #%d) -> run thread %d\n",
			ap.Candidate.Thread, ap.Candidate.Kind, ap.Candidate.Seq, ap.SwitchTo)
	}
}
