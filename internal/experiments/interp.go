package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"heisendump/internal/chess"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/sched"
	"heisendump/internal/telemetry"
	"heisendump/internal/trace"
	"heisendump/internal/workloads"
)

// InterpRow reports the interpreter's per-step cost on one workload,
// in the re-execution regime of the schedule search: a single machine
// rewound with Machine.Reset between deterministic runs, each run on
// the sched.Runner loop under the cooperative scheduler — one burst
// per thread, as chess trials run between preemptions — plus one full
// plain-CHESS schedule search as the end-to-end latency probe.
//
// Gated fields (see cmd/benchgate): AllocsPerStep as an exact-ish
// ceiling (budget 0 plus noise tolerance), NsPerStep and SearchNs as
// headroom ceilings — the baseline value is a budget, and a fresh
// value beyond the headroom factor fails CI. That catches a gross
// dispatch-loop regression (an accidental allocation, a lost
// superinstruction, a de-inlined hot call) without flaking on
// machine-speed differences between the baseline runner and CI.
// StepsExecuted is the deterministic step count of the probe search,
// gated as an exact ceiling (a fresh run must never execute more steps
// than the baseline). StepsPerSec and Steps are informational.
type InterpRow struct {
	Name          string
	AllocsPerStep float64
	NsPerStep     float64
	StepsPerSec   float64
	SearchNs      int64
	Steps         int64
	// StepsExecuted is the probe search's interpreter-step count.
	StepsExecuted int64
	// SearchNsTelemetry is the cold probe search with the telemetry
	// stack observing its event stream, one fold event per committed
	// rank: a Tracer and a FlightRecorder behind one Observers
	// fan-out. TelemetryOverhead is the median of the
	// per-round tele/cold ratios of process CPU time, the two legs
	// alternating search by search with GC pinned off (see
	// telemetryOverheadPair) so machine drift, preemption and vCPU
	// steal cancel; benchgate holds it to the documented 1.05 ceiling,
	// pinning the "telemetry is passive" claim as a perf gate, not just
	// a determinism gate. Both legs fire the always-on sharded
	// counters, so the ratio prices only the event stream (building and
	// delivering each fold event), the tracer and the flight recorder.
	SearchNsTelemetry int64
	TelemetryOverhead float64
}

// interpReps is the number of measured re-executions per workload —
// enough to amortize any residual warm-up allocation to well below
// the gate's tolerance. The reps are timed in interpBlocks equal
// blocks and NsPerStep is the fastest block: like SearchNs's
// min-of-blocks, the minimum is the low-noise estimator for a
// deterministic workload (scheduling and frequency noise only ever
// adds time).
const (
	interpReps   = 200
	interpBlocks = 5
)

// overheadRounds and overheadBlock shape the telemetry-overhead A/B.
// The ratio gates against an absolute ceiling (1.05, see
// cmd/benchgate), so it needs a much tighter estimator than the
// headroom-gated wall times: each round runs overheadBlock searches
// of each leg, alternating cold and telemetry-on search by search,
// and the reported overhead is the median of the rounds' CPU-time
// ratios (see telemetryOverheadPair).
const (
	overheadRounds = 41
	overheadBlock  = 8
)

// InterpTable measures steady-state interpreter cost for a fixed set
// of Table 2 workloads. The first run of each machine warms the
// frame/thread/object free lists and is excluded; the machine then
// allocates nothing per step, so the expected steady-state
// allocs/step is 0.
func InterpTable() ([]InterpRow, error) {
	var rows []InterpRow
	for _, name := range []string{"mysql-1", "apache-1"} {
		w := workloads.ByName(name)
		cp, err := w.Compile(true)
		if err != nil {
			return nil, fmt.Errorf("experiments: interp %s: %w", name, err)
		}
		// Preemption candidates for the search probe, discovered once
		// per workload from the cooperative passing run.
		rec := trace.NewRecorder()
		mt := interp.New(cp, w.Input.Clone())
		mt.MaxSteps = 1_000_000
		mt.Hooks = rec
		if res := sched.Run(mt, sched.NewCooperative()); res.Crashed {
			return nil, fmt.Errorf("experiments: interp %s: passing run crashed: %v", name, res.Crash)
		}
		cands := chess.DiscoverCandidates(cp, rec.Events)
		chess.Annotate(cands, nil)

		m := interp.New(cp, w.Input.Clone())
		// One scheduler, rewound in place per run like the machine, so
		// a measured run allocates nothing.
		coop := sched.NewCooperative()
		steps := sched.Run(m, coop).Steps // warm-up run, excluded
		if steps == 0 {
			return nil, fmt.Errorf("experiments: interp %s: empty run", name)
		}
		var total int64
		bestBlock := float64(0)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for b := 0; b < interpBlocks; b++ {
			var blockSteps int64
			start := time.Now()
			for r := 0; r < interpReps/interpBlocks; r++ {
				m.Reset(m.Prog, m.SeedInput())
				*coop = sched.Cooperative{}
				blockSteps += sched.Run(m, coop).Steps
			}
			perStep := float64(time.Since(start).Nanoseconds()) / float64(blockSteps)
			if bestBlock == 0 || perStep < bestBlock {
				bestBlock = perStep
			}
			total += blockSteps
		}
		runtime.ReadMemStats(&ms1)
		nsPerStep := bestBlock
		coldNs, teleNs, overhead, coldExec, teleExec := telemetryOverheadPair(cp, w, cands, int64(len(rec.Events)))
		if teleExec != coldExec {
			return nil, fmt.Errorf("experiments: interp %s: telemetry changed the search: %d steps vs %d",
				name, teleExec, coldExec)
		}
		rows = append(rows, InterpRow{
			Name:              name,
			AllocsPerStep:     float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
			NsPerStep:         nsPerStep,
			StepsPerSec:       1e9 / nsPerStep,
			SearchNs:          coldNs,
			Steps:             steps,
			StepsExecuted:     coldExec,
			SearchNsTelemetry: teleNs,
			TelemetryOverhead: overhead,
		})
	}
	return rows, nil
}

// telemetryOverheadPair times the cold and telemetry-on probe
// searches interleaved — overheadRounds rounds of overheadBlock
// searches per leg — and returns each leg's minimum per-search wall
// time, the overhead estimate, and each leg's (deterministic)
// executed-step count.
//
// The overhead is the median of the per-round tele/cold ratios of the
// legs' summed process CPU time (getrusage user + system), not of wall
// time and not the ratio of the minima. Wall time charges a search for
// everything else the host does meanwhile — another tenant's burst,
// vCPU steal, a preemption — and a probe search lasts a few
// milliseconds, the same order as one scheduler quantum, so wall-time
// ratios scattered past the ceiling; CPU time counts only the
// process's own work. Within a round the legs alternate search by
// search in ABBA order, so interference slower than one search lands
// on both legs alike and a fixed order effect cancels; summing
// overheadBlock searches per leg averages what noise remains, the
// median over the rounds discards outlier rounds, and pinning GC off
// for the measurement (heap state is restored after) keeps collection
// work out of the comparison — the gate is about the telemetry hot
// path, not about where a GC cycle happens to fall.
// A discarded warm-up round keeps process warm-up (first touches of
// the searcher's pools and code paths) out of the first measured
// round. The minima are still what SearchNs/SearchNsTelemetry report
// (the low-noise wall-time estimator); the ratio gate needs the
// robust estimator because its ceiling is absolute.
func telemetryOverheadPair(cp *ir.Program, w *workloads.Workload, cands []chess.Candidate, passingSteps int64) (coldNs, teleNs int64, overhead float64, coldExec, teleExec int64) {
	// timeRound runs overheadBlock searches of each leg, alternating
	// the legs search by search in ABBA order, and returns each leg's
	// summed wall and CPU time.
	timeRound := func() (wall, cpu [2]int64) {
		for i := 0; i < 2*overheadBlock; i++ {
			tele := (i+i/2)%2 == 1 // cold, tele, tele, cold, ...
			leg := 0
			if tele {
				leg = 1
			}
			start, cpu0 := time.Now(), processCPU()
			exec := probeSearch(cp, w, cands, passingSteps, tele)
			wall[leg] += time.Since(start).Nanoseconds()
			cpu[leg] += processCPU() - cpu0
			if tele {
				teleExec = exec
			} else {
				coldExec = exec
			}
		}
		return wall, cpu
	}
	runtime.GC()
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	timeRound() // warm-up round, discarded
	ratios := make([]float64, 0, overheadRounds)
	for r := 0; r < overheadRounds; r++ {
		wall, cpu := timeRound()
		if perSearch := wall[0] / overheadBlock; coldNs == 0 || perSearch < coldNs {
			coldNs = perSearch
		}
		if perSearch := wall[1] / overheadBlock; teleNs == 0 || perSearch < teleNs {
			teleNs = perSearch
		}
		ratios = append(ratios, float64(cpu[1])/float64(cpu[0]))
	}
	sort.Float64s(ratios)
	if n := len(ratios); n%2 == 1 {
		overhead = ratios[n/2]
	} else {
		overhead = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	return coldNs, teleNs, overhead, coldExec, teleExec
}

// processCPU returns the process's CPU time so far — user plus
// system, all threads — in nanoseconds (microsecond resolution).
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid buffer cannot fail.
		panic(fmt.Sprintf("experiments: getrusage: %v", err))
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// probeSearch runs a deterministic plain-CHESS schedule search
// (unweighted, unguided, bound 2, 400 tries, one worker, unmatchable
// target — the BenchmarkSearchParallel regime) and returns its
// executed-step count. With tele set, the telemetry stack observes
// the search's event stream, one fold event per committed rank: a
// Tracer (synthetic clock) and a 64-deep FlightRecorder, as the batch
// server attaches its SSE hub and flight recorder to every job.
func probeSearch(cp *ir.Program, w *workloads.Workload, cands []chess.Candidate, passingSteps int64, tele bool) int64 {
	s := &chess.Searcher{
		NewMachine: func() *interp.Machine {
			m := interp.New(cp, w.Input.Clone())
			m.MaxSteps = 1_000_000
			return m
		},
		Candidates: cands,
		Target:     chess.FailureSignature{Reason: "never matches"},
		Opts: chess.Options{
			Bound:        2,
			MaxTries:     400,
			Workers:      1,
			PassingSteps: passingSteps,
		},
	}
	if tele {
		s.Opts.Observers = telemetry.Observers{telemetry.NewTracer(nil), telemetry.NewFlightRecorder(64)}
	}
	return s.SearchContext(context.Background()).StepsExecuted
}

// PrintInterp renders the interpreter cost section. The search columns
// are the telemetry off/on A/B: wall time of the same deterministic
// probe search cold and with the telemetry stack attached.
func PrintInterp(w io.Writer, rows []InterpRow) {
	fmt.Fprintln(w, "Interpreter steady-state cost (per step, post-warm-up; search = plain CHESS, 400 tries, cold vs telemetry-on)")
	fmt.Fprintf(w, "%-10s %12s %9s %12s %10s %10s %10s %7s %7s\n",
		"workload", "allocs/step", "ns/step", "steps/s",
		"search-ms", "tele-ms", "steps-exec", "steps", "tele-x")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.6f %9.1f %12.0f %10.2f %10.2f %10d %7d %7.3f\n",
			r.Name, r.AllocsPerStep, r.NsPerStep, r.StepsPerSec,
			float64(r.SearchNs)/1e6, float64(r.SearchNsTelemetry)/1e6,
			r.StepsExecuted, r.Steps, r.TelemetryOverhead)
	}
}
