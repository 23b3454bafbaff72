// Command benchtab regenerates the paper's evaluation tables and
// figures on the library's workloads.
//
// Usage:
//
//	benchtab                  # everything
//	benchtab -table 4         # one table (1-6)
//	benchtab -fig 10          # figure 10
//	benchtab -plaincap 5000   # raise the plain-CHESS cutoff
//	benchtab -workers 8       # run up to 8 workloads concurrently
//	benchtab -generated       # add the curated generator-derived
//	                          # workloads as extra rows in tables 2-6
//	benchtab -json > rows.json # machine-readable rows (one JSON object
//	                           # per table/figure) for perf tracking
//	benchtab -interp          # add the interpreter cost section:
//	                          # allocs/step, ns/step, steps/s and
//	                          # search wall time of the dispatch loop
//	                          # (gated as budgets by cmd/benchgate)
//	benchtab -static          # add the static-guidance comparison
//	                          # section: race/deadlock candidate counts
//	                          # and search tries with vs without the
//	                          # lockset analyzer's focus set (gated by
//	                          # cmd/benchgate)
//	benchtab -table -1 -static # a negative -table selects no numbered
//	                          # table, emitting only the opted-in
//	                          # sections (-interp / -static) — what the
//	                          # CI static-guidance gate runs
//	benchtab -timeout 2m      # give up after a wall-clock deadline
//	benchtab -progress        # stream search heartbeats to stderr
//	benchtab -trace run.json  # write pipeline stage spans and committed
//	                          # search ranks as Chrome trace-event JSON
//	                          # (open in chrome://tracing or Perfetto)
//	benchtab -interp -cpuprofile cpu.pprof
//	                          # write a CPU profile of the run; with
//	                          # -interp alone this profiles the trial
//	                          # hot path (go tool pprof cpu.pprof)
//
// Ctrl-C (or the -timeout deadline) cancels cooperatively: in-flight
// searches stop within one trial, completed tables have already been
// printed, and benchtab exits with a note on what was cut short.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"heisendump/internal/core"
	"heisendump/internal/experiments"
	"heisendump/internal/telemetry"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-6); 0 = all")
	fig := flag.Int("fig", 0, "regenerate one figure (10); 0 = per -table")
	plainCap := flag.Int("plaincap", 2000, "plain-CHESS try cutoff (the 18-hour analogue)")
	reps := flag.Int("reps", 3, "repetitions for overhead timing")
	workers := flag.Int("workers", 0, "concurrent workloads per table (0 = GOMAXPROCS)")
	generated := flag.Bool("generated", false, "add the curated generator-derived workloads (internal/gen) as extra rows in tables 2-6")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON rows, one object per table/figure")
	interpCost := flag.Bool("interp", false, "also measure interpreter cost: allocs/step, ns/step, steps/s and search wall time (the \"interp\" section cmd/benchgate gates)")
	static := flag.Bool("static", false, "also compare the schedule search with and without static race-analysis guidance (the \"static\" section cmd/benchgate gates)")
	timeout := flag.Duration("timeout", 0, "overall wall-clock deadline (0 = none)")
	progress := flag.Bool("progress", false, "stream per-workload schedule-search heartbeats to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected sections to this file")
	traceOut := flag.String("trace", "", "write pipeline stage spans and committed search ranks as Chrome trace-event JSON to this file")
	flag.Parse()

	experiments.Workers = *workers
	experiments.IncludeGenerated = *generated
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer(time.Now)
		// Flushed via defer like the CPU profile: fail() exits directly
		// and abandons a partial trace, the right trade for a gate
		// failure.
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchtab:", err)
				return
			}
			defer f.Close()
			if err := tracer.WriteJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchtab: writing trace:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "benchtab: %d trace event(s) written to %s\n", tracer.Len(), *traceOut)
		}()
	}
	printer := progressPrinter()
	experiments.Observe = func(subject string) telemetry.Observers {
		var obs telemetry.Observers
		if *progress {
			obs = append(obs, printer(subject))
		}
		if tracer != nil {
			obs = append(obs, tracer)
		}
		return obs
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		// Stop via defer so the profile is flushed on the normal exit
		// path (LIFO: stop and flush, then close); fail() below exits
		// directly, abandoning a partial profile, which is the right
		// trade for a gate failure.
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	out := io.Writer(os.Stdout)
	all := *table == 0 && *fig == 0

	fail := func(err error) {
		if errors.Is(err, core.ErrCancelled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "benchtab: cancelled, remaining sections skipped (%v)\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}

	enc := json.NewEncoder(os.Stdout)
	// emit renders one section: a JSON row object in -json mode, the
	// usual text table otherwise.
	emit := func(name string, rows any, print func()) {
		if *jsonOut {
			if err := enc.Encode(struct {
				Table string `json:"table"`
				Rows  any    `json:"rows"`
			}{name, rows}); err != nil {
				fail(err)
			}
			return
		}
		print()
		fmt.Fprintln(out)
	}

	if all || *table == 1 {
		rows, err := experiments.Table1(ctx)
		if err != nil {
			fail(err)
		}
		emit("table1", rows, func() { experiments.PrintTable1(out, rows) })
	}
	if all || *table == 2 {
		rows, err := experiments.Table2(ctx)
		if err != nil {
			fail(err)
		}
		emit("table2", rows, func() { experiments.PrintTable2(out, rows) })
	}
	if all || *table == 3 {
		rows, err := experiments.Table3(ctx)
		if err != nil {
			fail(err)
		}
		emit("table3", rows, func() { experiments.PrintTable3(out, rows) })
	}
	if all || *table == 4 {
		rows, err := experiments.Table4(ctx, *plainCap)
		if err != nil {
			fail(err)
		}
		emit("table4", rows, func() { experiments.PrintTable4(out, rows) })
	}
	if all || *table == 5 {
		rows, err := experiments.Table5(ctx, *plainCap)
		if err != nil {
			fail(err)
		}
		emit("table5", rows, func() { experiments.PrintTable5(out, rows) })
	}
	if all || *table == 6 {
		rows, err := experiments.Table6(ctx)
		if err != nil {
			fail(err)
		}
		emit("table6", rows, func() { experiments.PrintTable6(out, rows) })
	}
	if all || *fig == 10 {
		rows, err := experiments.Fig10(ctx, *reps)
		if err != nil {
			fail(err)
		}
		emit("fig10", rows, func() { experiments.PrintFig10(out, rows) })
	}
	if all || *interpCost {
		rows, err := experiments.InterpTable()
		if err != nil {
			fail(err)
		}
		emit("interp", rows, func() { experiments.PrintInterp(out, rows) })
	}
	if all || *static {
		rows, err := experiments.StaticTable(ctx, 0)
		if err != nil {
			fail(err)
		}
		emit("static", rows, func() { experiments.PrintStaticTable(out, rows) })
	}
}

// progressPrinter returns a per-subject observer that streams fold
// heartbeats to stderr, throttled to one line per subject per 200ms
// (final Done lines always print). Concurrent subjects share it, so it
// serializes internally.
func progressPrinter() func(subject string) telemetry.Observer {
	var mu sync.Mutex
	last := map[string]time.Time{}
	return func(subject string) telemetry.Observer {
		return telemetry.ObserverFunc(func(e telemetry.Event) {
			if e.Kind != telemetry.KindFold {
				return
			}
			p := e.Progress
			mu.Lock()
			defer mu.Unlock()
			if !p.Done && time.Since(last[subject]) < 200*time.Millisecond {
				return
			}
			last[subject] = time.Now()
			state := "searching"
			if p.Done {
				state = "done"
			}
			fmt.Fprintf(os.Stderr, "progress %-10s %-9s combos %d/%d  tries %d  executed %d  found=%v\n",
				subject, state, p.Committed, p.Combos, p.Tries, p.Executed, p.Found)
		})
	}
}
