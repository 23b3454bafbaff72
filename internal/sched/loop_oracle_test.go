package sched_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"heisendump/internal/coredump"
	"heisendump/internal/gen"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/sched"
	"heisendump/internal/trace"
	"heisendump/internal/workloads"
)

// The Runner runs a Chooser in bursts, hands an unrecorded Random run
// to the machine, which draws each next thread itself
// (Machine.RunRandom), keeps the runnable set cached on the machine
// and draws stress interleavings from its own copy of math/rand's
// source (interp.RNG). TestRunLoopMatchesPerStepReference pins all of
// these against the per-step loop they replaced (ref_test.go): every
// run below executes on both, and the two must agree on the outcome,
// the steps, the output, the crash, the deadlock diagnosis, the typed
// error, the recorded schedule and the final machine state (a core
// dump of it), plus, in hooked runs, every hook call, the trace events
// and each event's reads and writes.

// oracleSubject is one program the oracle runs.
type oracleSubject struct {
	name  string
	prog  *ir.Program
	input *interp.Input
}

// longRun and lateCrash run for thousands of steps, so the oracle's
// budgets and cancellation at step 1024 fall inside them (the Table 2
// and generated programs finish within ~520 steps): longRun finishes
// under the cooperative schedule and can deadlock under random ones
// (w takes L then M at i == 250, v takes M then L); lateCrash fails its
// assertion after a few hundred lock rounds.
const (
	longRun = `
program longrun;
global int a;
global int b;
lock L;
lock M;
func main() {
    spawn w(300);
    spawn w(300);
    spawn v(200);
}
func w(int n) {
    var int i;
    var int t;
    for i = 1 .. n {
        acquire(L);
        a = a + 1;
        if (i == 250) {
            acquire(M);
            b = b + 1;
            release(M);
        }
        release(L);
        t = b;
        b = t + i;
    }
}
func v(int n) {
    var int i;
    for i = 1 .. n {
        acquire(M);
        acquire(L);
        a = a - 1;
        release(L);
        release(M);
    }
}
`
	lateCrash = `
program latecrash;
global int a;
lock L;
func main() {
    spawn w(300);
    spawn w(300);
}
func w(int n) {
    var int i;
    for i = 1 .. n {
        acquire(L);
        a = a + 1;
        release(L);
        assert(a < 450, "a reached 450");
    }
}
`
)

// oracleSubjects returns the seven Table 2 bugs, generated programs for
// seeds 1..genSeeds, and the two long-running programs above.
func oracleSubjects(t *testing.T, genSeeds int64) []oracleSubject {
	t.Helper()
	out := []oracleSubject{
		{"longrun", compile(t, longRun), nil},
		{"latecrash", compile(t, lateCrash), nil},
	}
	for _, w := range workloads.Bugs() {
		cp, err := w.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, oracleSubject{w.Name, cp, w.Input})
	}
	for seed := int64(1); seed <= genSeeds; seed++ {
		p := gen.Generate(seed)
		cp, err := p.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, oracleSubject{p.Name, cp, p.Input})
	}
	return out
}

// oracleSched pairs a scheduler under test with its reference.
type oracleSched struct {
	name string
	mk   func() sched.Scheduler
	ref  func() refScheduler
}

// horizonSeeds is the number of horizonChoosers the oracle runs.
const horizonSeeds = 4

// oracleScheds returns the cooperative scheduler, horizonChoosers for
// seeds 0..horizonSeeds-1 and random schedulers for seeds 0..seeds-1.
// Odd random seeds reuse one Random reseeded in place, the way Stress
// drives it.
func oracleScheds(t *testing.T, seeds int64) []oracleSched {
	out := []oracleSched{{
		name: "cooperative",
		mk:   func() sched.Scheduler { return sched.NewCooperative() },
		ref:  func() refScheduler { return &refCooperative{} },
	}}
	for seed := int64(0); seed < horizonSeeds; seed++ {
		out = append(out, oracleSched{
			name: fmt.Sprintf("horizon-%d", seed),
			mk: func() sched.Scheduler {
				return &horizonChooser{t: t, rng: rand.New(rand.NewSource(seed)), tid: -1}
			},
			ref: func() refScheduler { return &refCooperative{} },
		})
	}
	reused := sched.NewRandom(-1)
	for seed := int64(0); seed < seeds; seed++ {
		mk := func() sched.Scheduler { return sched.NewRandom(seed) }
		if seed%2 == 1 {
			mk = func() sched.Scheduler { reused.Seed(seed); return reused }
		}
		out = append(out, oracleSched{
			name: fmt.Sprintf("random-%d", seed),
			mk:   mk,
			ref:  func() refScheduler { return newRefRandom(seed) },
		})
	}
	return out
}

// horizonChooser picks like the cooperative scheduler, but draws each
// burst's horizon from its seed: 0, the thread's current sync count,
// one to three above it, or math.MaxInt. The run must be the
// cooperative one whatever the horizons, and at each Next the chooser
// checks that the burst before it stopped where RunBurst's contract
// puts it.
type horizonChooser struct {
	sched.Cooperative
	t   *testing.T
	rng *rand.Rand
	// The last burst: its thread (-1 before the first), the thread's
	// Syncs and the machine's steps when it began, and its horizon.
	tid, syncs, horizon int
	steps               int64
}

func (c *horizonChooser) Horizon(m *interp.Machine, tid int) int {
	syncs := m.Threads[tid].Syncs
	h := 0
	switch k := c.rng.Intn(6); k {
	case 1, 2, 3, 4:
		h = syncs + k - 1
	case 5:
		h = math.MaxInt
	}
	c.tid, c.syncs, c.horizon, c.steps = tid, syncs, h, m.TotalSteps
	return h
}

func (c *horizonChooser) Next(m *interp.Machine) int {
	if c.tid >= 0 {
		c.checkBurst(m)
	}
	return c.Cooperative.Next(m)
}

// checkBurst fails the test when the last burst ran past its horizon
// or stopped short of it. Past: below the horizon a burst completes
// sync operations only up to it, and at or above it only one, as its
// first instruction; nor may it reach a blocking acquire after its
// first instruction once at the horizon. Short: a thread that can
// still run stops only at the machine's step limit, at a context poll
// (every 1024 steps from the run's start) or at the horizon, right
// after a sync operation or before one. (A Runner budget ends the run
// without asking the chooser again.)
func (c *horizonChooser) checkBurst(m *interp.Machine) {
	t := m.Threads[c.tid]
	ran := m.TotalSteps - c.steps
	_, acquire, release := t.SyncOp()
	where := fmt.Sprintf("burst of thread %d at step %d (horizon %d, syncs %d -> %d, %d steps)",
		c.tid, c.steps, c.horizon, c.syncs, t.Syncs, ran)
	switch {
	case c.syncs < c.horizon && t.Syncs > c.horizon,
		c.syncs >= c.horizon && t.Syncs > c.syncs && (t.Syncs > c.syncs+1 || ran != 1),
		t.Status == interp.Blocked && ran > 1 && t.Syncs >= c.horizon:
		c.t.Fatalf("%s ran past its horizon", where)
	case m.Crashed() || t.Status != interp.Runnable || m.TotalSteps == m.MaxSteps || m.TotalSteps%1024 == 0:
	case t.Syncs < c.horizon || (t.Syncs == c.syncs && !acquire && !release):
		c.t.Fatalf("%s stopped short of its horizon", where)
	}
}

// stepCtx reports cancellation once its machine has executed at
// steps, so a cancellation lands at the same step in both loops.
type stepCtx struct {
	context.Context
	m  *interp.Machine
	at int64
}

func (c stepCtx) Err() error {
	if c.m.TotalSteps >= c.at {
		return context.Canceled
	}
	return nil
}

// oracleStepLimit is the machines' MaxSteps for the oracle runs;
// tightStepLimit cuts most runs short, exercising the machine-limit
// stop inside a burst.
const (
	oracleStepLimit = 200_000
	tightStepLimit  = 150
)

// hookCall is one hook call: the hook, the thread and its step count
// when the hook fired, and the hook's argument.
type hookCall struct {
	hook  string
	tid   int
	steps int64
	pc    ir.PC
	fidx  int
	taken bool
	v     interp.VarID
}

// accessLog records a trace and, independently of the recorder, logs
// every hook call (including the OnEnterFunc a thread's first step
// fires, which the recorder does not keep) and the variables each step
// reads and writes as the hooks report them.
type accessLog struct {
	*trace.Recorder
	calls         []hookCall
	reads, writes [][]interp.VarID
}

func (l *accessLog) log(hook string, t *interp.Thread, c hookCall) {
	c.hook, c.tid, c.steps = hook, t.ID, t.Steps
	l.calls = append(l.calls, c)
}

func (l *accessLog) BeforeInstr(t *interp.Thread, pc ir.PC) {
	l.log("before", t, hookCall{pc: pc})
	l.reads = append(l.reads, nil)
	l.writes = append(l.writes, nil)
	l.Recorder.BeforeInstr(t, pc)
}

func (l *accessLog) OnBranch(t *interp.Thread, pc ir.PC, taken bool) {
	l.log("branch", t, hookCall{pc: pc, taken: taken})
	l.Recorder.OnBranch(t, pc, taken)
}

func (l *accessLog) OnEnterFunc(t *interp.Thread, fidx int) {
	l.log("enter", t, hookCall{fidx: fidx})
	l.Recorder.OnEnterFunc(t, fidx)
}

func (l *accessLog) OnExitFunc(t *interp.Thread, fidx int) {
	l.log("exit", t, hookCall{fidx: fidx})
	l.Recorder.OnExitFunc(t, fidx)
}

func (l *accessLog) OnRead(t *interp.Thread, v interp.VarID) {
	l.log("read", t, hookCall{v: v})
	l.reads[len(l.reads)-1] = append(l.reads[len(l.reads)-1], v)
	l.Recorder.OnRead(t, v)
}

func (l *accessLog) OnWrite(t *interp.Thread, v interp.VarID) {
	l.log("write", t, hookCall{v: v})
	l.writes[len(l.writes)-1] = append(l.writes[len(l.writes)-1], v)
	l.Recorder.OnWrite(t, v)
}

// sameVars reports whether rec's ids resolve to vars, in order.
func sameVars(rec *trace.Recorder, ids []int32, vars []interp.VarID) bool {
	if len(ids) != len(vars) {
		return false
	}
	for i, id := range ids {
		if rec.Vars[id] != vars[i] {
			return false
		}
	}
	return true
}

func TestRunLoopMatchesPerStepReference(t *testing.T) {
	seeds := int64(100)
	if raceEnabled || testing.Short() {
		seeds = 8 // the race detector slows the loop ~10x
	}
	for _, sub := range oracleSubjects(t, 50) {
		got := interp.New(sub.prog, sub.input)
		want := interp.New(sub.prog, sub.input)
		run := func(label string, maxSteps int64, r sched.Runner, s sched.Scheduler, rs refScheduler, hooked bool) *sched.Result {
			t.Helper()
			got.Reset(sub.prog, sub.input)
			want.Reset(sub.prog, sub.input)
			got.MaxSteps, want.MaxSteps = maxSteps, maxSteps
			var gotLog, wantLog *accessLog
			got.Hooks, want.Hooks = nil, nil
			if hooked {
				gotLog, wantLog = &accessLog{Recorder: trace.NewRecorder()}, &accessLog{Recorder: trace.NewRecorder()}
				got.Hooks, want.Hooks = gotLog, wantLog
			}
			var refCtx context.Context
			if r.Ctx != nil {
				r.Ctx = stepCtx{context.Background(), got, 1024}
				refCtx = stepCtx{context.Background(), want, 1024}
			}
			g := r.Run(got, s)
			w := refRun(want, rs, r.MaxSteps, refCtx)
			where := sub.name + " " + label
			compareRuns(t, where, g, w, r.Record)
			if gd, wd := coredump.Capture(got, 0, ir.PC{}, "oracle"), coredump.Capture(want, 0, ir.PC{}, "oracle"); !reflect.DeepEqual(gd, wd) {
				t.Fatalf("%s: final machine state differs", where)
			}
			if !hooked {
				return w
			}
			if !reflect.DeepEqual(gotLog.calls, wantLog.calls) {
				t.Fatalf("%s: hook calls differ (%d calls vs %d)", where, len(gotLog.calls), len(wantLog.calls))
			}
			gotRec := gotLog.Recorder
			if !reflect.DeepEqual(gotRec.Events, wantLog.Events) {
				t.Fatalf("%s: trace differs (%d events vs %d)", where, len(gotRec.Events), len(wantLog.Events))
			}
			for i := range gotRec.Events {
				if !sameVars(gotRec, gotRec.Reads(i), wantLog.reads[i]) || !sameVars(gotRec, gotRec.Writes(i), wantLog.writes[i]) {
					t.Fatalf("%s: event %d's recorded reads and writes differ from the hooks'", where, i)
				}
			}
			return w
		}
		for _, sc := range oracleScheds(t, seeds) {
			full := run(sc.name, oracleStepLimit, sched.Runner{Record: true}, sc.mk(), sc.ref(), sc.name == "cooperative")
			// An unrecorded Random draws inside the machine
			// (Machine.RunRandom), a recorded one before every step, so
			// every stop runs both ways; one random run per subject is
			// hooked.
			run(sc.name+" unrecorded", oracleStepLimit, sched.Runner{}, sc.mk(), sc.ref(), sc.name == "random-1")
			for _, rec := range []bool{true, false} {
				label := sc.name
				if !rec {
					label += " unrecorded"
				}
				run(label+" machine limit", tightStepLimit, sched.Runner{Record: rec}, sc.mk(), sc.ref(), false)
				for _, budget := range []int64{0, 1, 7, 1023, 1024, 1025} {
					bound := budget
					if bound <= 0 {
						bound = -1 // BoundedRunContext's "run nothing"
					}
					run(fmt.Sprintf("%s budget %d", label, budget), oracleStepLimit,
						sched.Runner{MaxSteps: bound, Record: rec}, sc.mk(), sc.ref(), false)
				}
				run(label+" cancelled at 1024", oracleStepLimit,
					sched.Runner{Ctx: context.Background(), Record: rec}, sc.mk(), sc.ref(), false)
			}

			// Witness replays: the recorded schedule verbatim, and with
			// one step redirected to another thread, which stalls or
			// diverges.
			replay := full.Schedule
			run(sc.name+" replay", oracleStepLimit, sched.Runner{Record: true},
				sched.NewReplayer(replay), &refReplayer{schedule: replay}, false)
			if len(replay) > 0 {
				bent := append([]int(nil), replay...)
				bent[len(bent)/2] = (bent[len(bent)/2] + 1) % len(got.Threads)
				run(sc.name+" bent replay", oracleStepLimit, sched.Runner{Record: true},
					sched.NewReplayer(bent), &refReplayer{schedule: bent}, false)
			}
		}
	}
}

// compareRuns asserts that a Runner result matches the reference
// loop's. The reference always records its schedule; got carries one
// only when recorded.
func compareRuns(t *testing.T, where string, got, want *sched.Result, recorded bool) {
	t.Helper()
	if got.Outcome() != want.Outcome() {
		t.Fatalf("%s: outcome %v, reference %v", where, got.Outcome(), want.Outcome())
	}
	if got.Steps != want.Steps || !reflect.DeepEqual(got.Output, want.Output) {
		t.Fatalf("%s: steps %d output %v, reference steps %d output %v", where, got.Steps, got.Output, want.Steps, want.Output)
	}
	if !reflect.DeepEqual(got.Crash, want.Crash) {
		t.Fatalf("%s: crash %v, reference %v", where, got.Crash, want.Crash)
	}
	if !reflect.DeepEqual(got.Deadlock, want.Deadlock) {
		t.Fatalf("%s: deadlock %v, reference %v", where, got.Deadlock, want.Deadlock)
	}
	if got.Crashed != want.Crashed || got.Deadlocked != want.Deadlocked || got.Finished != want.Finished ||
		got.StepLimited != want.StepLimited || got.Budgeted != want.Budgeted || got.Cancelled != want.Cancelled ||
		got.Stalled != want.Stalled || got.StallThread != want.StallThread || got.CancelCause != want.CancelCause {
		t.Fatalf("%s: result flags differ:\n got  %+v\n want %+v", where, got, want)
	}
	// The reference reports a stall at len(Schedule), as the loop did
	// before recording became optional.
	wantErr := fmt.Sprint(want.Err())
	if want.Stalled {
		wantErr = fmt.Sprintf("%v: thread %d at schedule position %d", sched.ErrStalled, want.StallThread, len(want.Schedule))
	}
	if gotErr := fmt.Sprint(got.Err()); gotErr != wantErr {
		t.Fatalf("%s: error %q, reference %q", where, gotErr, wantErr)
	}
	if recorded {
		if !reflect.DeepEqual(got.Schedule, want.Schedule) && (len(got.Schedule) > 0 || len(want.Schedule) > 0) {
			t.Fatalf("%s: recorded schedule differs (%d steps vs %d)", where, len(got.Schedule), len(want.Schedule))
		}
	} else if got.Schedule != nil {
		t.Fatalf("%s: unrecorded run has a schedule of %d steps", where, len(got.Schedule))
	}
}
