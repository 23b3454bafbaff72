// Command reprod runs the full reproduction pipeline on a workload or
// a program source file, through the context-aware Session API.
//
// Usage:
//
//	reprod -w apache-1                       # built-in workload
//	reprod -src prog.hd                      # your own program
//	reprod -w mysql-3 -heuristic dep         # dependence-distance priorities
//	reprod -w mysql-3 -plain                 # undirected CHESS baseline
//	reprod -w mysql-3 -align instcount       # Table 5 alignment baseline
//	reprod -w apache-2 -timeout 30s          # deadline the whole run
//	reprod -w mysql-3 -trace run.json        # Chrome trace-event JSON
//	reprod -list                             # list workloads
//
// Ctrl-C (or the -timeout deadline) cancels the run cooperatively —
// the schedule search stops within one trial — and reprod prints the
// best-so-far partial report (Report.Partial) before exiting.
//
// Exit status: 0 when the failure was reproduced, 2 when the search
// completed without finding a schedule, 3 when the run was cancelled,
// 1 on any other error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"heisendump"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reprod: ")

	wname := flag.String("w", "", "built-in workload name (see -list)")
	srcPath := flag.String("src", "", "path to a program source file")
	heuristic := flag.String("heuristic", "temporal", `CSV prioritization: "temporal" or "dep"`)
	align := flag.String("align", "index", `aligned-point method: "index" or "instcount"`)
	plain := flag.Bool("plain", false, "use undirected CHESS (no weighting, no guidance)")
	bound := flag.Int("k", 2, "preemption bound")
	maxTries := flag.Int("maxtries", 5000, "schedule-search trial budget")
	workers := flag.Int("workers", 0, "schedule-search worker pool width (0 = GOMAXPROCS); the result is deterministic for any value")
	timeout := flag.Duration("timeout", 0, "overall wall-clock deadline (0 = none); the deadline cancels like Ctrl-C")
	list := flag.Bool("list", false, "list built-in workloads")
	verbose := flag.Bool("v", false, "print the failure index, CSVs, candidates and stage transitions")
	flag.StringVar(&tracePath, "trace", "", "write the run as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	flag.Parse()

	if *list {
		for _, n := range heisendump.WorkloadNames() {
			w := heisendump.WorkloadByName(n)
			fmt.Printf("%-14s %-5s %s\n", n, w.Kind, w.Description)
		}
		return
	}

	var prog *heisendump.Program
	var input *heisendump.Input
	var err error
	switch {
	case *wname != "":
		w := heisendump.WorkloadByName(*wname)
		if w == nil {
			log.Fatalf("unknown workload %q (try -list)", *wname)
		}
		prog, err = w.Compile(true)
		if err != nil {
			log.Fatal(err)
		}
		input = w.Input
	case *srcPath != "":
		src, err := os.ReadFile(*srcPath)
		if err != nil {
			log.Fatal(err)
		}
		prog, err = heisendump.CompileSource(string(src), true)
		if err != nil {
			log.Fatal(err)
		}
		input = &heisendump.Input{}
	default:
		log.Fatal("need -w <workload> or -src <file> (or -list)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []heisendump.Option{
		heisendump.WithBound(*bound),
		heisendump.WithTrialBudget(*maxTries),
		heisendump.WithPlainChess(*plain),
		heisendump.WithWorkers(*workers),
	}
	if *heuristic == "dep" {
		opts = append(opts, heisendump.WithHeuristic(heisendump.Dependence))
	}
	if *align == "instcount" {
		opts = append(opts, heisendump.WithAlignment(heisendump.AlignByInstructionCount))
	}
	if *verbose {
		opts = append(opts, heisendump.WithObserver(heisendump.ObserverFunc(func(e heisendump.Event) {
			if e.Kind == heisendump.EventStageBegin {
				fmt.Printf("stage: %s\n", e.Stage)
			}
		})))
	}
	if tracePath != "" {
		tracer = heisendump.NewTracer(time.Now)
		opts = append(opts, heisendump.WithObserver(tracer))
	}
	// A flight recorder always rides along (it is observational and
	// cheap); its tail prints as evidence when the run fails or is cut
	// short.
	flight = heisendump.NewFlightRecorder(16)
	opts = append(opts, heisendump.WithObserver(flight))

	s := heisendump.NewCompiled(prog, input, opts...)

	// The staged Session calls keep the output streaming: each phase's
	// results print as soon as it completes, and a cancellation at any
	// point leaves everything printed so far as the partial report.
	fail, err := s.ProvokeFailure(ctx)
	if err != nil {
		exitOn(err)
	}
	fmt.Printf("failure: %s\n", fail.Signature.Reason)
	fmt.Printf("  at %s, thread %d\n", prog.FormatPC(fail.Dump.PC), fail.Dump.FailingThread)
	fmt.Printf("  calling context: %s\n", fail.Dump.CallingContext())
	fmt.Printf("  dump: %d bytes (stress seed %d, %d attempts)\n",
		fail.DumpBytes, fail.Seed, fail.Attempts)

	an, err := s.Analyze(ctx, fail)
	if err != nil {
		exitOn(err)
	}
	if an.FailureIndex != nil {
		fmt.Printf("failure index: len %d\n", an.IndexLen)
		if *verbose {
			fmt.Printf("  %s\n", an.FailureIndex.Format(prog))
		}
	}
	fmt.Printf("aligned point: %v after %d steps at %s\n",
		an.AlignKind, an.AlignSteps, prog.FormatPC(an.AlignPC))
	fmt.Printf("dump diff: %d compared (%d shared), %d differ, %d CSVs\n",
		an.Diff.VarsCompared, an.Diff.SharedCompared, len(an.Diff.Diffs), len(an.CSVs))
	if *verbose {
		for _, c := range an.CSVs {
			fmt.Printf("  CSV %-20s failing=%v passing=%v\n", c.Path, c.A, c.B)
		}
		fmt.Printf("preemption candidates: %d\n", len(an.Candidates))
	}

	res, err := s.Search(ctx, fail, an)
	if res != nil && res.Cancelled {
		fmt.Printf("cancelled mid-search: best-so-far partial result: found=%v after %d tries (%d runs executed)\n",
			res.Found, res.Tries, res.TrialsExecuted)
		printSchedule(res)
		exitOn(err)
	}
	if err != nil && !errors.Is(err, heisendump.ErrScheduleNotFound) {
		exitOn(err)
	}
	if !res.Found {
		fmt.Printf("NOT reproduced within %d tries (%v)\n", res.Tries, res.Elapsed)
		printFlight()
		writeTrace()
		os.Exit(2)
	}
	fmt.Printf("reproduced: %d tries (%d runs executed on %d workers), %v, %d interpreter steps\n",
		res.Tries, res.TrialsExecuted, res.Workers, res.Elapsed, res.StepsExecuted)
	printSchedule(res)
	writeTrace()
}

// tracePath/tracer/flight are shared with the exit paths: os.Exit
// bypasses defers, so every terminal print path flushes them
// explicitly.
var (
	tracePath string
	tracer    *heisendump.Tracer
	flight    *heisendump.FlightRecorder
)

// writeTrace flushes the Chrome trace-event JSON when -trace was
// given.
func writeTrace() {
	if tracer == nil {
		return
	}
	f, err := os.Create(tracePath)
	if err != nil {
		log.Print(err)
		return
	}
	werr := tracer.WriteJSON(f)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		log.Printf("writing trace: %v", errors.Join(werr, cerr))
		return
	}
	fmt.Printf("trace: %d event(s) written to %s\n", tracer.Len(), tracePath)
}

// printFlight prints the flight recorder's tail — the last committed
// ranks and the last fold decision — as evidence on failed or
// cancelled runs.
func printFlight() {
	fl := flight.Snapshot()
	if fl == nil {
		return
	}
	dropped := ""
	if fl.Dropped > 0 {
		dropped = fmt.Sprintf(" (%d older fold event(s) dropped)", fl.Dropped)
	}
	fmt.Printf("flight recorder: last %d committed rank(s)%s:\n", len(fl.Ranks), dropped)
	for _, r := range fl.Ranks {
		fmt.Printf("  rank %d worker %d: tries=%d steps=%d found=%v\n",
			r.Rank, r.Worker, r.Tries, r.Steps, r.Found)
	}
	if n := len(fl.Decisions); n > 0 {
		d := fl.Decisions[n-1]
		fmt.Printf("  last fold decision: %s at %d committed / %d tries (found=%v)\n",
			d.Kind, d.Committed, d.Tries, d.Found)
	}
}

func printSchedule(res *heisendump.SearchResult) {
	for _, ap := range res.Schedule {
		lock := ""
		if ap.Candidate.Lock != "" {
			lock = fmt.Sprintf(" lock %q", ap.Candidate.Lock)
		}
		fmt.Printf("  preempt thread %d at %v (sync #%d%s) -> thread %d\n",
			ap.Candidate.Thread, ap.Candidate.Kind, ap.Candidate.Seq, lock, ap.SwitchTo)
	}
}

// exitOn reports a terminal error: cancellation exits 3 with a note
// that everything already printed is the partial result; anything else
// is fatal.
func exitOn(err error) {
	if errors.Is(err, heisendump.ErrCancelled) {
		fmt.Printf("cancelled: %v\n", err)
		fmt.Println("(output above is the best-so-far partial result)")
		printFlight()
		writeTrace()
		os.Exit(3)
	}
	log.Fatal(err)
}
