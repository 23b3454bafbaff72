package trace_test

import (
	"runtime"
	"testing"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
	"heisendump/internal/trace"
)

// longLoopSrc runs one thread through a loop of 100,000 iterations.
const longLoopSrc = `
program long;
global int x;
global int a[8];
func main() {
    var int i;
    for i = 0 .. 99999 {
        x = x + i;
        a[i % 8] = x;
    }
}
`

// traceBytesPerStep bounds the live heap a recorded trace holds per
// step: a 48-byte event, the ids of the step's reads and writes, and
// the slack geometric growth leaves, twice over.
const traceBytesPerStep = 96

// TestLongTraceHeapPerStep: recording a single-thread loop of over
// 250,000 steps keeps the trace's live heap under traceBytesPerStep
// bytes a step.
func TestLongTraceHeapPerStep(t *testing.T) {
	cp, err := ir.Compile(lang.MustParse(longLoopSrc), ir.Options{InstrumentLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(cp, nil)
	m.MaxSteps = 10_000_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := trace.NewRecorder()
	m.Hooks = rec
	res := sched.Run(m, sched.NewCooperative())
	m.Hooks = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	if res.Steps < 250_000 || int64(len(rec.Events)) != res.Steps {
		t.Fatalf("%d steps, %d events: want one event per step and over 250,000", res.Steps, len(rec.Events))
	}
	perStep := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(res.Steps)
	t.Logf("%d steps, %d variables: %.1f live bytes a step", res.Steps, len(rec.Vars), perStep)
	if perStep >= traceBytesPerStep {
		t.Errorf("the trace holds %.1f bytes a step, want under %d", perStep, traceBytesPerStep)
	}
	runtime.KeepAlive(rec)
	runtime.KeepAlive(m)
}
