package heisendump_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"heisendump"
)

// Example_quickstart reproduces the paper's Fig. 1 Heisenbug end to
// end through the Session API: provoke the failure under random
// interleavings, analyze the core dump, and search for a
// failure-inducing schedule. Every phase is deterministic (fixed
// stress seeds, WithWorkers(1)), so the output is stable — `go test`
// keeps this quick start honest.
func Example_quickstart() {
	w := heisendump.WorkloadByName("fig1")
	// New compiles through the process-wide shared program cache
	// (instrumentation on), so every Session over the same source
	// shares one immutable compiled program.
	s, err := heisendump.New(w.Source, w.Input,
		heisendump.WithHeuristic(heisendump.Temporal),
		heisendump.WithTrialBudget(1000),
		heisendump.WithWorkers(1), // any value gives the same result; 1 keeps the example minimal
	)
	if err != nil {
		log.Fatal(err)
	}

	rep, err := s.Reproduce(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash: %s\n", rep.Failure.Signature.Reason)
	fmt.Printf("aligned: %v, %d CSVs\n", rep.Analysis.AlignKind, len(rep.Analysis.CSVs))
	fmt.Printf("found=%v tries=%d\n", rep.Search.Found, rep.Search.Tries)
	for _, ap := range rep.Search.Schedule {
		fmt.Printf("preempt thread %d at %v (sync #%d) -> thread %d\n",
			ap.Candidate.Thread, ap.Candidate.Kind, ap.Candidate.Seq, ap.SwitchTo)
	}
	// Output:
	// crash: null pointer dereference
	// aligned: closest, 2 CSVs
	// found=true tries=1
	// preempt thread 1 at after-release (sync #4) -> thread 2
}

// ExampleSession_cancellation cancels a reproduction mid-search and
// shows the best-so-far partial report a cancelled Session returns.
// The cancellation fires from a fold event when the search's folded
// try counter — which is deterministic for any worker count — reaches
// a budget, so the partial result (and this output) is stable too;
// a real service would instead cancel on Ctrl-C or a deadline.
func ExampleSession_cancellation() {
	w := heisendump.WorkloadByName("fig1")
	prog, err := w.Compile(true)
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := heisendump.NewCompiled(prog, w.Input,
		heisendump.WithPlainChess(true), // undirected CHESS needs 4 tries on fig1...
		heisendump.WithObserver(heisendump.ObserverFunc(func(e heisendump.Event) {
			if e.Kind == heisendump.EventFold && !e.Progress.Done && e.Progress.Tries >= 2 {
				cancel() // ...so cancelling after 2 folded tries stops before the find
			}
		})),
	)

	rep, err := s.Reproduce(ctx)
	fmt.Printf("cancelled: %v\n", errors.Is(err, heisendump.ErrCancelled))
	fmt.Printf("partial: %v, found=%v after %d tries\n",
		rep.Partial, rep.Search.Found, rep.Search.Tries)
	// Output:
	// cancelled: true
	// partial: true, found=false after 2 tries
}

// ExampleCompareDumps diffs a failure core dump against the dump
// captured at the aligned point of a deterministic passing re-run; the
// shared locations that differ are the critical shared variables the
// schedule search is steered by.
func ExampleCompareDumps() {
	w := heisendump.WorkloadByName("fig1")
	prog, err := w.Compile(true)
	if err != nil {
		log.Fatal(err)
	}
	s := heisendump.NewCompiled(prog, w.Input)
	fail, err := s.ProvokeFailure(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	an, err := s.Analyze(context.Background(), fail) // captures the aligned-point dump
	if err != nil {
		log.Fatal(err)
	}

	diff := heisendump.CompareDumps(fail.Dump, an.AlignedDump)
	fmt.Printf("compared %d locations (%d shared)\n", diff.VarsCompared, diff.SharedCompared)
	for _, c := range diff.CSVs() {
		fmt.Printf("CSV %s: failing=%v passing=%v\n", c.Path, c.A, c.B)
	}
	// Output:
	// compared 15 locations (10 shared)
	// CSV busy: failing=3 passing=0
	// CSV x: failing=0 passing=1
}

// ExampleAnonymizeDump shows the §7 privacy mitigation: dumps
// anonymized with the same salt preserve value *equality* without
// revealing values, so the comparison phase still finds exactly the
// same critical shared variables.
func ExampleAnonymizeDump() {
	w := heisendump.WorkloadByName("fig1")
	prog, err := w.Compile(true)
	if err != nil {
		log.Fatal(err)
	}
	s := heisendump.NewCompiled(prog, w.Input)
	fail, err := s.ProvokeFailure(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	an, err := s.Analyze(context.Background(), fail)
	if err != nil {
		log.Fatal(err)
	}

	const salt = 0xfeedface
	anonFail := heisendump.AnonymizeDump(fail.Dump, prog, salt)
	anonPass := heisendump.AnonymizeDump(an.AlignedDump, prog, salt)

	clear := heisendump.CompareDumps(fail.Dump, an.AlignedDump).CSVs()
	anon := heisendump.CompareDumps(anonFail, anonPass).CSVs()

	same := len(clear) == len(anon)
	for i := range anon {
		if !same {
			break
		}
		same = anon[i].Path == clear[i].Path
	}
	fmt.Printf("same CSVs from anonymized dumps: %v\n", same)
	for _, c := range anon {
		fmt.Printf("CSV %s (values tokenized)\n", c.Path)
	}
	// Output:
	// same CSVs from anonymized dumps: true
	// CSV busy (values tokenized)
	// CSV x (values tokenized)
}
