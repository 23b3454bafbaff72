package heisendump_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"heisendump"
)

// runWithTelemetry reproduces one workload with the full telemetry
// stack optionally attached: a Tracer on a synthetic clock, and a
// FlightRecorder — the same consumers cmd/reprod and the batch
// server wire per run. It returns the report plus the consumers for
// inspection (nil when tele is off).
func runWithTelemetry(t *testing.T, prog *heisendump.Program, input *heisendump.Input,
	workers int, tele bool) (*heisendump.Report, *heisendump.Tracer, *heisendump.FlightRecorder) {
	t.Helper()
	opts := []heisendump.Option{
		heisendump.WithTrialBudget(4000),
		heisendump.WithWorkers(workers),
	}
	var tr *heisendump.Tracer
	var fl *heisendump.FlightRecorder
	if tele {
		tr = heisendump.NewTracer(nil) // nil clock: synthetic ticks, no wall-clock reads
		fl = heisendump.NewFlightRecorder(64)
		opts = append(opts, heisendump.WithObserver(tr), heisendump.WithObserver(fl))
	}
	rep, err := heisendump.NewCompiled(prog, input, opts...).Reproduce(context.Background())
	if err != nil {
		t.Fatalf("workers=%d tele=%v: %v", workers, tele, err)
	}
	return rep, tr, fl
}

// TestSessionTelemetryPassive is the telemetry passivity matrix: over
// workers {1,4}, attaching the full
// telemetry stack (tracer + flight recorder, with the global counters
// firing throughout) leaves Found, Tries and the winning Schedule
// bit-identical to the telemetry-off reference. This is the
// determinism half of the "telemetry is passive" claim; the cost half
// is benchgate's TelemetryOverhead ceiling.
func TestSessionTelemetryPassive(t *testing.T) {
	w, prog := compileWorkload(t, "mysql-3")
	ref, _, _ := runWithTelemetry(t, prog, w.Input, 1, false)
	if !ref.Search.Found {
		t.Fatalf("reference run did not reproduce in %d tries", ref.Search.Tries)
	}

	before := heisendump.MetricsSnapshot()
	for _, workers := range []int{1, 4} {
		for _, tele := range []bool{false, true} {
			name := fmt.Sprintf("w%d_tele=%v", workers, tele)
			rep, tr, fl := runWithTelemetry(t, prog, w.Input, workers, tele)
			if rep.Search.Found != ref.Search.Found ||
				rep.Search.Tries != ref.Search.Tries ||
				!reflect.DeepEqual(rep.Search.Schedule, ref.Search.Schedule) {
				t.Fatalf("%s diverged from the telemetry-off reference:\n  got  found=%v tries=%d %+v\n  want found=%v tries=%d %+v",
					name,
					rep.Search.Found, rep.Search.Tries, rep.Search.Schedule,
					ref.Search.Found, ref.Search.Tries, ref.Search.Schedule)
			}
			if !tele {
				continue
			}
			// The consumers actually observed the run.
			if tr.Len() == 0 {
				t.Errorf("%s: tracer recorded no events", name)
			}
			log := fl.Snapshot()
			if log == nil || len(log.Ranks) == 0 {
				t.Errorf("%s: flight recorder empty", name)
			} else if d := log.Decisions; len(d) == 0 || !d[len(d)-1].Found {
				t.Errorf("%s: flight recorder's last decision is not the find: %+v", name, d)
			}
		}
	}

	// The global counters fired while the matrix ran: searches, trial
	// executions and interpreter steps all advanced.
	after := heisendump.MetricsSnapshot()
	for _, series := range []string{
		"heisen_chess_searches_total",
		"heisen_chess_searches_found_total",
		"heisen_chess_trials_executed_total",
		"heisen_chess_steps_executed_total",
	} {
		if after[series] <= before[series] {
			t.Errorf("counter %s did not advance over the matrix: %d -> %d", series, before[series], after[series])
		}
	}
}

// TestSessionStreamReportsEveryRank: the event stream carries one
// fold event per committed rank, in rank order: their count is the
// final heartbeat's Committed, their tries sum to Tries, only the last
// can be the find, and the summaries match at one worker and at four.
// At one worker, where nothing is speculative, their steps sum to
// StepsExecuted.
func TestSessionStreamReportsEveryRank(t *testing.T) {
	for _, name := range []string{"mysql-3", "apache-2"} {
		w, prog := compileWorkload(t, name)
		var ref []heisendump.Event
		for _, workers := range []int{1, 4} {
			var rec streamRecorder
			rep, err := heisendump.NewCompiled(prog, w.Input,
				heisendump.WithTrialBudget(4000),
				heisendump.WithWorkers(workers),
				heisendump.WithObserver(&rec),
			).Reproduce(context.Background())
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			_, beats, ranks := checkStream(t, rec.events)
			res := rep.Search
			if last := beats[len(beats)-1]; len(ranks) != last.Committed || len(ranks) == 0 {
				t.Fatalf("%s workers=%d: %d rank events, want the %d committed ranks", name, workers, len(ranks), last.Committed)
			}
			tries, steps := 0, int64(0)
			for i, e := range ranks {
				r := e.Rank
				if r.Rank != i || e.Progress.Committed != i+1 || r.Found != (i == len(ranks)-1 && res.Found) {
					t.Fatalf("%s workers=%d: rank event %d = %+v committed %d, want rank %d", name, workers, i, r, e.Progress.Committed, i)
				}
				tries += r.Tries
				steps += r.Steps
			}
			if tries != res.Tries {
				t.Errorf("%s workers=%d: rank tries sum to %d, want Tries %d", name, workers, tries, res.Tries)
			}
			if workers == 1 {
				if steps != res.StepsExecuted {
					t.Errorf("%s workers=1: rank steps sum to %d, want StepsExecuted %d", name, steps, res.StepsExecuted)
				}
				ref = ranks
				continue
			}
			for i, e := range ranks {
				if got, want := e.Rank, ref[i].Rank; got.Rank != want.Rank || got.Tries != want.Tries || got.Found != want.Found {
					t.Fatalf("%s workers=%d: rank event %d = %+v, want %+v as at one worker", name, workers, i, got, want)
				}
			}
		}
	}
}

// TestWriteMetricsFamilies: the facade's Prometheus export is
// well-formed text exposition covering the chess and interp families
// (the server families are covered end-to-end by cmd/heisend's smoke
// test, which scrapes a live /metrics).
func TestWriteMetricsFamilies(t *testing.T) {
	w, prog := compileWorkload(t, "fig1")
	if _, err := heisendump.NewCompiled(prog, w.Input).Reproduce(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := heisendump.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, family := range []string{
		"# TYPE heisen_chess_searches_total counter",
		"# TYPE heisen_chess_trial_steps histogram",
		"# TYPE heisen_interp_crashes_total counter",
		"# TYPE heisen_progcache_hits_total counter",
		"\nheisen_chess_steps_executed_total ",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metrics text missing %q", family)
		}
	}
	// Every sample line parses as "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 || !strings.HasPrefix(fields[0], "heisen_") {
			t.Errorf("malformed sample line %q", line)
		}
	}
}
