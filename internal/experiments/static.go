package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"heisendump/internal/chess"
	"heisendump/internal/core"
	"heisendump/internal/pool"
	"heisendump/internal/statics"
)

// StaticTableRow compares the schedule search with and without static
// race-analysis guidance on one bug. Base* is the enhanced search
// (weighted + guided, the chessX+temporal configuration); Static*
// adds the lockset analyzer's focus set (chess.Options.Static), which
// reorders the worklist so combinations touching statically flagged
// variables explore first. Both Tries columns are deterministic
// (bit-identical for any Workers), so the CI baseline pins
// them exactly: a Static column regressing above its Base column means
// the guidance stopped paying for itself on that workload.
type StaticTableRow struct {
	Name string
	// Races/Deadlocks are the analyzer's candidate counts; AnalyzeTime
	// is the one-time whole-program analysis cost.
	Races       int
	Deadlocks   int
	AnalyzeTime time.Duration

	BaseTries int
	BaseFound bool
	BaseTime  time.Duration

	StaticTries int
	StaticFound bool
	StaticTime  time.Duration
}

// StaticTable runs the with/without-static-guidance comparison on
// every subject. cap bounds both searches (0 means 4000). The
// provocation and analysis phases run once per bug and are shared; the
// search runs twice, differing only in chess.Options.Static.
func StaticTable(ctx context.Context, cap int) ([]StaticTableRow, error) {
	if cap == 0 {
		cap = 4000
	}
	bugs := subjects()
	rows := make([]StaticTableRow, len(bugs))
	err := pool.ForEachContext(ctx, Workers, len(bugs), func(i int) error {
		w := bugs[i]
		prog, err := w.Compile(true)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		t0 := time.Now()
		rep := statics.Analyze(prog)
		analyzeTime := time.Since(t0)

		// Workers=1: the subject-level pool already saturates the cores.
		p := core.NewPipeline(prog, w.Input, core.Config{Workers: 1, Observers: Observe(w.Name)})
		fail, err := p.ProvokeFailureContext(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		an, err := p.AnalyzeContext(ctx, fail)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}

		row := StaticTableRow{
			Name:        w.Name,
			Races:       len(rep.Races),
			Deadlocks:   len(rep.Deadlocks),
			AnalyzeTime: analyzeTime,
		}
		for _, static := range []bool{false, true} {
			s := p.Searcher(fail, an)
			s.Opts.MaxTries = cap
			if static {
				s.Opts.Static = chess.NewFocus(prog, rep.FocusSet())
			}
			res := s.SearchContext(ctx)
			if res.Cancelled {
				return fmt.Errorf("%s: %w", w.Name, core.Cancelled(ctx.Err()))
			}
			if static {
				row.StaticTries, row.StaticFound, row.StaticTime = res.Tries, res.Found, res.Elapsed
			} else {
				row.BaseTries, row.BaseFound, row.BaseTime = res.Tries, res.Found, res.Elapsed
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PrintStaticTable renders the static-guidance comparison.
func PrintStaticTable(w io.Writer, rows []StaticTableRow) {
	fmt.Fprintln(w, "Static guidance. Lockset analysis feeding the schedule search.")
	fmt.Fprintf(w, "%-10s %6s %5s %10s | %16s | %16s\n",
		"bug", "races", "dlck", "analyze", "base search", "static search")
	fmt.Fprintf(w, "%-10s %6s %5s %10s | %7s %8s | %7s %8s\n",
		"", "", "", "", "tries", "time", "tries", "time")
	for _, r := range rows {
		mark := func(tries int, found bool) string {
			if found {
				return fmt.Sprintf("%d", tries)
			}
			return fmt.Sprintf("%d*", tries)
		}
		fmt.Fprintf(w, "%-10s %6d %5d %10s | %7s %8s | %7s %8s\n",
			r.Name, r.Races, r.Deadlocks, r.AnalyzeTime.Round(time.Microsecond),
			mark(r.BaseTries, r.BaseFound), r.BaseTime.Round(time.Millisecond),
			mark(r.StaticTries, r.StaticFound), r.StaticTime.Round(time.Millisecond))
	}
	fmt.Fprintln(w, "* cut off before the failure was reproduced")
}
