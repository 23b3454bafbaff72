package heisendump_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"heisendump"
)

// TestCompileSharesOneProgram pins the public cache contract: Compile
// returns the same immutable *Program for the same source, and the
// instrument-controlled variant keys separately.
func TestCompileSharesOneProgram(t *testing.T) {
	w := heisendump.WorkloadByName("fig1")
	p1, err := heisendump.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := heisendump.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("Compile returned distinct programs for one source")
	}
	plain, err := heisendump.CompileSource(w.Source, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain == p1 {
		t.Fatal("instrumented and plain compilations share a cache entry")
	}
	if st := heisendump.CompileCacheStats(); st.Entries == 0 {
		t.Fatalf("shared cache reports no entries: %+v", st)
	}
}

// TestCompileRejectsBadSourceTyped: the cached compile path surfaces
// parser/checker rejections as typed *SourceError values — the
// contract service layers build their 400s on.
func TestCompileRejectsBadSourceTyped(t *testing.T) {
	_, err := heisendump.Compile("program nope; func main( {}")
	var srcErr *heisendump.SourceError
	if err == nil || !errors.As(err, &srcErr) {
		t.Fatalf("want *SourceError, got %v", err)
	}
	if srcErr.Phase != "parse" {
		t.Fatalf("phase %q, want parse", srcErr.Phase)
	}

	_, err = heisendump.Compile("program nope;\nfunc main() {\n    ghost = 1;\n}\n")
	if err == nil || !errors.As(err, &srcErr) {
		t.Fatalf("want *SourceError, got %v", err)
	}
	if srcErr.Phase != "check" {
		t.Fatalf("phase %q, want check", srcErr.Phase)
	}
}

// TestConcurrentSessionsShareImmutableProgram is the tentpole's
// safety pin, meant for `go test -race`: 64 Sessions run concurrently
// over ONE cached compiled program, and the program is bit-identical
// afterwards to an independent fresh compilation of the same source —
// ir.Program is never mutated post-Compile, so sharing it across any
// number of Sessions is sound.
func TestConcurrentSessionsShareImmutableProgram(t *testing.T) {
	w := heisendump.WorkloadByName("fig1")
	shared, err := heisendump.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	// An uncached reference compilation of the same source.
	// Compilation is deterministic, so it starts deep-equal to the
	// shared program; after the concurrent runs it must still be.
	ast, err := heisendump.Parse(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := heisendump.CompileAST(ast, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, reference) {
		t.Fatal("fresh compilation differs from cached program before any run")
	}

	const sessions = 64
	var wg sync.WaitGroup
	reports := make([]*heisendump.Report, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := heisendump.NewCompiled(shared, w.Input,
				heisendump.WithWorkers(2),
				heisendump.WithTrialBudget(500),
			)
			reports[i], errs[i] = s.Reproduce(context.Background())
		}(i)
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !reports[i].Search.Found ||
			reports[i].Search.Tries != reports[0].Search.Tries ||
			gensched(reports[i]) != gensched(reports[0]) {
			t.Fatalf("session %d diverged: found=%v tries=%d",
				i, reports[i].Search.Found, reports[i].Search.Tries)
		}
	}

	if !reflect.DeepEqual(shared, reference) {
		t.Fatal("shared ir.Program was mutated by concurrent Sessions")
	}
}

func gensched(r *heisendump.Report) string { return r.Search.ScheduleString() }

// TestObserverOrderingUnderConcurrentLoad re-checks the event stream
// contract while many Sessions run at once: each stream independently
// delivers the seven stage spans in order, paired by span id, with
// monotone heartbeats inside the search span and exactly one Done
// heartbeat — no cross-session interleaving corrupts a stream — and
// no span id is shared between streams.
func TestObserverOrderingUnderConcurrentLoad(t *testing.T) {
	w := heisendump.WorkloadByName("fig1")
	prog, err := heisendump.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 8
	streams := make([]streamRecorder, sessions)
	errs := make([]error, sessions)
	shared := heisendump.NewTracer(nil) // observes every session
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := heisendump.NewCompiled(prog, w.Input,
				heisendump.WithWorkers(2),
				heisendump.WithObserver(&streams[i]),
				heisendump.WithObserver(shared),
			)
			_, errs[i] = s.Reproduce(context.Background())
		}(i)
	}
	wg.Wait()

	owner := map[uint64]int{}
	for i := range streams {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		spans, _, _ := checkStream(t, streams[i].events)
		for _, id := range spans {
			if j, dup := owner[id]; dup {
				t.Fatalf("span id %d used by sessions %d and %d", id, j, i)
			}
			owner[id] = i
		}
	}

	// The shared tracer closed every session's seven spans.
	var sb strings.Builder
	if err := shared.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name, Ph string
			Dur      int64
		}
	}
	if err := json.Unmarshal([]byte(sb.String()), &trace); err != nil {
		t.Fatal(err)
	}
	perStage := map[string]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur <= 0 {
			t.Fatalf("shared tracer left span %s open", ev.Name)
		}
		perStage[ev.Name]++
	}
	for _, name := range wantStages {
		if perStage[name] != sessions {
			t.Fatalf("shared tracer recorded %d %s spans, want %d (all: %v)", perStage[name], name, sessions, perStage)
		}
	}
}
