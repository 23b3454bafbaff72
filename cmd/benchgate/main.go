// Command benchgate is the benchmark-regression gate: it compares a
// fresh `benchtab -json` stream (stdin) against the checked-in
// baseline snapshot and fails when any deterministic search-outcome
// field drifts. Gated fields are the row names, every Tries / Found /
// Reproduced column, the static section's Races / Deadlocks candidate
// counts, and the alignment and dump columns of tables 3 and 5 (see
// alignmentGated) — the values the determinism contract pins for a
// given seed state — plus three classes of cost ceiling:
//
//   - AllocsPerStep and every StepsExecuted column gate as exact-ish
//     ceilings: the baseline value is a budget, a regression beyond a
//     small noise tolerance fails, improvements pass. StepsExecuted is
//     deterministic (the searches run with one worker), so a search
//     must never execute more interpreter steps than the baseline it
//     was snapshotted against.
//   - NsPerStep and SearchNs (including the telemetry-on
//     SearchNsTelemetry leg) gate as headroom ceilings:
//     a fresh value above baseline × timeHeadroom fails. The generous
//     factor absorbs machine-speed differences between the baseline
//     runner and CI while still catching a gross dispatch-loop
//     regression (an accidental per-step allocation, a lost
//     superinstruction, a de-inlined hot call — each worth far more
//     than the headroom).
//   - TelemetryOverhead gates as an absolute ratio ceiling (1.05):
//     both legs of the ratio run in the same process and are timed in
//     its CPU time, so it needs no machine headroom — it pins the
//     telemetry stack's passivity as a cost budget, complementing the
//     determinism tests. Both legs fire the always-on counters, so the
//     ratio prices only the event stream's fold events, one per
//     committed rank, the tracer and the flight recorder.
//
// Other cost fields (table times, executed trial counts, steps) are
// informational only and never gate.
//
// Usage (what CI runs):
//
//	benchtab -table 4 -interp -static -json | benchgate -baseline BENCH_baseline.json
//	benchtab -table 3 -json | benchgate -baseline BENCH_baseline.json
//	benchtab -table 5 -json | benchgate -baseline BENCH_baseline.json
//
// Only the tables present on stdin are compared, so gating one table
// against a full-run baseline works. When a PR intentionally moves the
// numbers, regenerate the baseline (see README.md) and review the diff.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "checked-in benchtab -json snapshot to gate against")
	tableFilter := flag.String("table", "", `compare only this table (e.g. "table4"); default: every table on stdin`)
	flag.Parse()

	f, err := os.Open(*baselinePath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	baseline, err := parseSections(f)
	if err != nil {
		fatal(fmt.Errorf("baseline %s: %w", *baselinePath, err))
	}
	fresh, err := parseSections(os.Stdin)
	if err != nil {
		fatal(fmt.Errorf("stdin: %w", err))
	}
	if *tableFilter != "" {
		if _, ok := fresh[*tableFilter]; !ok {
			fatal(fmt.Errorf("table %q not present on stdin", *tableFilter))
		}
		fresh = map[string][]map[string]any{*tableFilter: fresh[*tableFilter]}
	}
	if len(fresh) == 0 {
		fatal(fmt.Errorf("no tables on stdin"))
	}

	diffs, checked := compare(fresh, baseline)
	for _, d := range diffs {
		fmt.Fprintln(os.Stderr, "benchgate: DRIFT:", d)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d gated field(s) drifted from %s — if intentional, regenerate the baseline (see README.md)\n",
			len(diffs), *baselinePath)
		os.Exit(1)
	}
	names := make([]string, 0, len(fresh))
	for n := range fresh {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("benchgate: OK — %s unchanged (%d gated fields checked)\n", strings.Join(names, ", "), checked)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}

// parseSections decodes a benchtab -json stream: one
// {"table": ..., "rows": [...]} object per line. Numbers stay
// json.Number so comparisons never lose precision.
func parseSections(r io.Reader) (map[string][]map[string]any, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	out := map[string][]map[string]any{}
	for {
		var s struct {
			Table string           `json:"table"`
			Rows  []map[string]any `json:"rows"`
		}
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if s.Table == "" {
			return nil, fmt.Errorf("section without a table name")
		}
		out[s.Table] = s.Rows
	}
	return out, nil
}

// rowID names a row in drift messages: tables key rows on either
// "Name" (workloads) or "Benchmark" (corpora).
func rowID(row map[string]any) any {
	if v, ok := row["Name"]; ok {
		return v
	}
	return row["Benchmark"]
}

// gated reports whether a row field participates in the regression
// gate: row identity, every deterministic search-outcome column
// (which covers the static section's BaseTries/StaticTries pair — the
// analyzer's guidance win is pinned exactly, per workload), the static
// section's candidate counts (Races/Deadlocks — the analyzer's
// verdicts are a pure function of the program), and the interpreter
// cost ceilings (see ceilingGated and budgetGated).
func gated(key string) bool {
	return key == "Name" || key == "Benchmark" ||
		strings.Contains(key, "Tries") ||
		strings.Contains(key, "Found") ||
		key == "Reproduced" ||
		key == "Races" || key == "Deadlocks" ||
		alignmentGated(key) ||
		ceilingGated(key) ||
		budgetGated(key) ||
		ratioGated(key)
}

// alignmentGated marks the columns gated by exact equality that pin
// what the search starts from: Table 3's failure index length, aligned
// point kind, dump sizes, compared and differing variables, CSVs and
// stress attempts, and Table 5's thread-local instruction count (the
// instruction-count baseline's target). Each is a pure function of the
// program, its input and the stress seeds.
func alignmentGated(key string) bool {
	switch key {
	case "AlignKind", "IndexLen", "CSVs", "Diffs", "VarsCompared", "SharedCompared",
		"FailDumpBytes", "PassDumpBytes", "StressAttempts", "ThreadInstrs":
		return true
	}
	return false
}

// ceilingGated marks fields gated as a numeric ceiling rather than by
// exact equality: the baseline is a budget, a fresh value above it
// (beyond allocTolerance) is a regression, and an improvement passes.
// Used for the interpreter's allocs/step, whose steady-state target is
// zero but whose measurement carries runtime noise, and for the
// deterministic StepsExecuted counts of the searching sections, where
// the ceiling pins the trial executor: a change may only ever reduce
// the interpreter steps a search executes.
func ceilingGated(key string) bool {
	return strings.Contains(key, "Allocs") || strings.Contains(key, "StepsExecuted")
}

// allocTolerance absorbs measurement noise in ceiling-gated fields
// (GC bookkeeping allocations attributed to the measured loop).
const allocTolerance = 0.01

// ceilingOK compares a ceiling-gated field: ok when both values parse
// as numbers and fresh is within tolerance of the baseline budget.
func ceilingOK(got, want any) bool {
	g, errG := toFloat(got)
	w, errW := toFloat(want)
	return errG == nil && errW == nil && g <= w+allocTolerance
}

// budgetGated marks timing fields gated as multiplicative-headroom
// ceilings: ns/step and search wall time, whose absolute values depend
// on the machine but whose order of magnitude is a property of the
// code.
func budgetGated(key string) bool {
	return strings.Contains(key, "NsPerStep") || strings.Contains(key, "SearchNs")
}

// timeHeadroom is the multiplicative budget for budget-gated timing
// fields: fresh ≤ baseline × timeHeadroom passes. Sized to absorb a
// slow CI runner, not a slow interpreter — the regressions this gate
// exists to catch (a per-step allocation on the dispatch path, a
// reversion to per-instruction trial stepping) cost well over 3×.
const timeHeadroom = 3.0

// budgetOK compares a budget-gated field.
func budgetOK(got, want any) bool {
	g, errG := toFloat(got)
	w, errW := toFloat(want)
	return errG == nil && errW == nil && g <= w*timeHeadroom
}

// ratioGated marks fields gated as absolute ratio ceilings,
// independent of the baseline's value: the interp section's
// TelemetryOverhead (telemetry-on / telemetry-off probe-search CPU
// time, the median over interleaved rounds) must stay at or below the
// documented 1.05 ceiling on every run. Both legs run in the same
// process, interleaved, so machine speed cancels out of the ratio — no
// headroom factor is needed. Both legs also fire the always-on sharded
// counters, so the ratio prices only what telemetry adds on top of
// them: the event stream's fold events, one per committed rank, the
// tracer and the flight recorder.
func ratioGated(key string) bool {
	return strings.Contains(key, "TelemetryOverhead")
}

// telemetryOverheadCeiling is the documented passivity budget:
// attaching the full telemetry stack may cost at most 5% search wall
// time.
const telemetryOverheadCeiling = 1.05

// ratioOK compares a ratio-gated field against its absolute ceiling.
func ratioOK(got any) bool {
	g, err := toFloat(got)
	return err == nil && g <= telemetryOverheadCeiling
}

func toFloat(v any) (float64, error) {
	if n, ok := v.(json.Number); ok {
		return n.Float64()
	}
	return 0, fmt.Errorf("not a number: %v", v)
}

// compare checks every gated field of every fresh table against the
// baseline, returning human-readable drift descriptions and the number
// of gated fields checked.
func compare(fresh, baseline map[string][]map[string]any) (diffs []string, checked int) {
	names := make([]string, 0, len(fresh))
	for n := range fresh {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := fresh[name]
		base, ok := baseline[name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: not in baseline", name))
			continue
		}
		if len(rows) != len(base) {
			diffs = append(diffs, fmt.Sprintf("%s: %d rows, baseline has %d", name, len(rows), len(base)))
			continue
		}
		for i, row := range rows {
			// The union of both rows' gated keys: a gated column that
			// disappears from the fresh output (or appears without a
			// baseline) is itself drift, not a silent pass.
			keySet := map[string]bool{}
			for k := range row {
				if gated(k) {
					keySet[k] = true
				}
			}
			for k := range base[i] {
				if gated(k) {
					keySet[k] = true
				}
			}
			keys := make([]string, 0, len(keySet))
			for k := range keySet {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				checked++
				got, inFresh := row[k]
				want, inBase := base[i][k]
				switch {
				case !inFresh:
					diffs = append(diffs, fmt.Sprintf("%s row %d (%v): gated field %s missing from fresh output (baseline %v)", name, i, rowID(base[i]), k, want))
				case !inBase:
					diffs = append(diffs, fmt.Sprintf("%s row %d (%v): gated field %s not in baseline", name, i, rowID(row), k))
				case ceilingGated(k):
					if !ceilingOK(got, want) {
						diffs = append(diffs, fmt.Sprintf("%s row %d (%v): %s = %v exceeds baseline budget %v", name, i, rowID(row), k, got, want))
					}
				case ratioGated(k):
					if !ratioOK(got) {
						diffs = append(diffs, fmt.Sprintf("%s row %d (%v): %s = %v exceeds the absolute ceiling %.2f", name, i, rowID(row), k, got, telemetryOverheadCeiling))
					}
				case budgetGated(k):
					if !budgetOK(got, want) {
						diffs = append(diffs, fmt.Sprintf("%s row %d (%v): %s = %v exceeds baseline %v × headroom %.1f", name, i, rowID(row), k, got, want, timeHeadroom))
					}
				case fmt.Sprint(got) != fmt.Sprint(want):
					diffs = append(diffs, fmt.Sprintf("%s row %d (%v): %s = %v, baseline %v", name, i, rowID(row), k, got, want))
				}
			}
		}
	}
	return diffs, checked
}
