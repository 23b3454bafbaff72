package trace_test

import (
	"fmt"
	"reflect"
	"testing"

	"heisendump/internal/gen"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/progcache"
	"heisendump/internal/sched"
	"heisendump/internal/trace"
	"heisendump/internal/workloads"
)

func run(t testing.TB, src string, hooks interp.Hooks) *interp.Machine {
	t.Helper()
	cp, err := ir.Compile(lang.MustParse(src), ir.Options{InstrumentLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(cp, nil)
	m.Hooks = hooks
	sched.Run(m, sched.NewCooperative())
	return m
}

const traceSrc = `
program tr;
global int x;
global int a[4];
func main() {
    var int i;
    x = 1;
    for i = 0 .. 3 {
        a[i] = x + i;
    }
    if (x > 0) {
        x = a[2];
    }
}
`

// accessLog logs, step by step, the variables the live hooks report
// read and written, in order.
type accessLog struct {
	reads, writes [][]interp.VarID
}

func (l *accessLog) BeforeInstr(t *interp.Thread, pc ir.PC) {
	l.reads = append(l.reads, nil)
	l.writes = append(l.writes, nil)
}

func (l *accessLog) OnRead(t *interp.Thread, v interp.VarID) {
	l.reads[len(l.reads)-1] = append(l.reads[len(l.reads)-1], v)
}

func (l *accessLog) OnWrite(t *interp.Thread, v interp.VarID) {
	l.writes[len(l.writes)-1] = append(l.writes[len(l.writes)-1], v)
}

// resolved returns each recorded event's reads and writes as variables.
func resolved(rec *trace.Recorder) (reads, writes [][]interp.VarID) {
	vars := func(ids []int32) []interp.VarID {
		var out []interp.VarID
		for _, id := range ids {
			out = append(out, rec.Vars[id])
		}
		return out
	}
	for i := range rec.Events {
		reads = append(reads, vars(rec.Reads(i)))
		writes = append(writes, vars(rec.Writes(i)))
	}
	return reads, writes
}

// checkAccesses fails unless rec's events resolve to exactly the reads
// and writes log saw live, step by step and in order.
func checkAccesses(t *testing.T, label string, rec *trace.Recorder, log *accessLog) {
	t.Helper()
	reads, writes := resolved(rec)
	for i := range max(len(reads), len(log.reads)) {
		if i >= len(reads) || i >= len(log.reads) ||
			!reflect.DeepEqual(reads[i], log.reads[i]) || !reflect.DeepEqual(writes[i], log.writes[i]) {
			t.Fatalf("%s: step %d's recorded reads and writes differ from the live hooks' (%d and %d steps)",
				label, i, len(reads), len(log.reads))
		}
	}
}

// loggedRecorder records a run and logs its accesses as the hooks fire.
type loggedRecorder struct {
	*trace.Recorder
	log accessLog
}

func (l *loggedRecorder) BeforeInstr(t *interp.Thread, pc ir.PC) {
	l.log.BeforeInstr(t, pc)
	l.Recorder.BeforeInstr(t, pc)
}

func (l *loggedRecorder) OnRead(t *interp.Thread, v interp.VarID) {
	l.log.OnRead(t, v)
	l.Recorder.OnRead(t, v)
}

func (l *loggedRecorder) OnWrite(t *interp.Thread, v interp.VarID) {
	l.log.OnWrite(t, v)
	l.Recorder.OnWrite(t, v)
}

func TestRecorderCapturesEverything(t *testing.T) {
	live := &loggedRecorder{Recorder: trace.NewRecorder()}
	m := run(t, traceSrc, live)
	rec := live.Recorder
	if int64(len(rec.Events)) != m.TotalSteps {
		t.Fatalf("events %d != steps %d", len(rec.Events), m.TotalSteps)
	}
	// Steps are sequential from 0.
	for i, e := range rec.Events {
		if e.Step != int64(i) {
			t.Fatalf("event %d has step %d", i, e.Step)
		}
	}
	// Every event holds the variables its step read and wrote, in order.
	checkAccesses(t, "tr", rec, &live.log)
	// Branch outcomes recorded.
	branches, reads, writes := 0, 0, 0
	for i, e := range rec.Events {
		if e.IsBranch {
			branches++
		}
		reads += len(rec.Reads(i))
		writes += len(rec.Writes(i))
	}
	if branches == 0 || reads == 0 || writes == 0 {
		t.Fatalf("branches=%d reads=%d writes=%d", branches, reads, writes)
	}
	// Each variable is interned once, and the write to a[2] appears
	// with the right identity.
	for id, v := range rec.Vars {
		if got, ok := rec.ID(v); !ok || got != int32(id) {
			t.Fatalf("variable %v has id %d, recorded as %d", v, id, got)
		}
	}
	found := false
	for i := range rec.Events {
		for _, w := range rec.Writes(i) {
			if v := rec.Vars[w]; v.Kind == interp.VArrayElem && v.Name(m.Prog) == "a" && v.Idx == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("a[2] write not recorded")
	}
}

func TestSynthEventsMarked(t *testing.T) {
	rec := trace.NewRecorder()
	m := run(t, `
program sy;
global int s;
func main() {
    var int i = 0;
    while (i < 3) {
        i = i + 1;
        s = s + i;
    }
}
`, rec)
	synth := 0
	for _, e := range rec.Events {
		if m.Prog.InstrAt(e.PC).Synth {
			synth++
		}
	}
	if synth != 4 { // reset + 3 increments
		t.Fatalf("synthetic events: %d, want 4", synth)
	}
}

// visit is one hook event an aligner consumes: a function entry, a
// step or a branch outcome.
type visit struct {
	kind   string
	thread int
	fidx   int
	pc     ir.PC
	taken  bool
}

// liveLog records a run and, as the hooks fire, logs the visits the
// aligners consume and the accesses of each step.
type liveLog struct {
	loggedRecorder
	visits []visit
}

func (l *liveLog) BeforeInstr(t *interp.Thread, pc ir.PC) {
	l.visits = append(l.visits, visit{kind: "step", thread: t.ID, pc: pc})
	l.loggedRecorder.BeforeInstr(t, pc)
}

func (l *liveLog) OnBranch(t *interp.Thread, pc ir.PC, taken bool) {
	l.visits = append(l.visits, visit{kind: "branch", thread: t.ID, pc: pc, taken: taken})
	l.Recorder.OnBranch(t, pc, taken)
}

func (l *liveLog) OnEnterFunc(t *interp.Thread, fidx int) {
	l.visits = append(l.visits, visit{kind: "enter", thread: t.ID, fidx: fidx})
	l.Recorder.OnEnterFunc(t, fidx)
}

// replayed logs the visits trace.Replay reports of a recorded run.
func replayed(prog *ir.Program, events []trace.Event) []visit {
	var out []visit
	trace.Replay(prog, events, func(thread, fidx int) {
		out = append(out, visit{kind: "enter", thread: thread, fidx: fidx})
	}, func(e *trace.Event) {
		out = append(out, visit{kind: "step", thread: e.Thread, pc: e.PC})
		if e.IsBranch {
			out = append(out, visit{kind: "branch", thread: e.Thread, pc: e.PC, taken: e.Taken})
		}
	})
	return out
}

// callFaultSrc faults while evaluating a call's argument, under every
// schedule.
const callFaultSrc = `
program callfault;
global int a[2];
global int k;
func f(int x) {
    return x + 1;
}
func worker() {
    k = k + 1;
}
func main() {
    spawn worker();
    a[0] = f(k);
    a[1] = f(a[k + 2]);
}
`

// TestReplayMatchesLiveHooks: replaying a recorded run reports exactly
// the function entries, steps and branch outcomes its live hooks
// reported, in the same order, on every Table 2 bug, fig1, generated
// seeds 1-20 and a call that faults in its argument, under the
// cooperative schedule and random seeds up to the second crash, and
// every event's reads and writes resolve to the variables the live
// hooks reported for its step. The faulting call's event enters
// nothing.
func TestReplayMatchesLiveHooks(t *testing.T) {
	type subject struct {
		name, source string
		input        *interp.Input
	}
	var subjects []subject
	for _, w := range append(workloads.Bugs(), workloads.Fig1) {
		subjects = append(subjects, subject{w.Name, w.Source, w.Input})
	}
	for seed := int64(1); seed <= 20; seed++ {
		p := gen.Generate(seed)
		subjects = append(subjects, subject{fmt.Sprintf("gen-seed-%d", seed), p.Source, p.Input})
	}
	subjects = append(subjects, subject{"callfault", callFaultSrc, nil})

	for _, sub := range subjects {
		prog, _, err := progcache.Shared().Get(sub.source, true)
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		check := func(label string, s sched.Scheduler) (*sched.Result, []trace.Event) {
			t.Helper()
			live := &liveLog{loggedRecorder: loggedRecorder{Recorder: trace.NewRecorder()}}
			m := interp.New(prog, sub.input)
			m.MaxSteps = 1_000_000
			m.Hooks = live
			res := sched.Run(m, s)
			if got := replayed(prog, live.Events); !reflect.DeepEqual(got, live.visits) {
				i := 0
				for i < len(got) && i < len(live.visits) && got[i] == live.visits[i] {
					i++
				}
				t.Fatalf("%s %s: %d replayed visits, %d live; first difference at %d:\n got:  %+v\n want: %+v",
					sub.name, label, len(got), len(live.visits), i, got[i:min(i+3, len(got))], live.visits[i:min(i+3, len(live.visits))])
			}
			checkAccesses(t, sub.name+" "+label, live.Recorder, &live.log)
			return res, live.Events
		}
		res, events := check("cooperative", sched.NewCooperative())
		if sub.name == "callfault" {
			last := events[len(events)-1]
			if !res.Crashed || prog.InstrAt(last.PC).Op != ir.OpCall || last.Call {
				t.Fatalf("callfault: crashed %v, last event %+v (op %v): want a crash in a call that enters nothing",
					res.Crashed, last, prog.InstrAt(last.PC).Op)
			}
		}
		crashes := 0
		for seed := int64(0); seed < 200 && crashes < 2; seed++ {
			if res, _ := check(fmt.Sprintf("random %d", seed), sched.NewRandom(seed)); res.Crashed {
				crashes++
			}
		}
		if crashes == 0 {
			t.Errorf("%s: no random seed below 200 crashed", sub.name)
		}
	}
}
