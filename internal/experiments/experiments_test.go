package experiments_test

import (
	"context"
	"strings"
	"testing"

	"heisendump/internal/experiments"
)

func TestTable1RowsAndRendering(t *testing.T) {
	rows, err := experiments.Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		sum := r.OneCD + r.AggrToOne + r.NotAggr + r.Loop
		if sum < 99.9 || sum > 100.1 {
			t.Fatalf("%s: percentages sum to %f", r.Benchmark, sum)
		}
		if r.Total < 5000 {
			t.Fatalf("%s: corpus too small (%d statements)", r.Benchmark, r.Total)
		}
	}
	var sb strings.Builder
	experiments.PrintTable1(&sb, rows)
	if !strings.Contains(sb.String(), "apache-like") {
		t.Fatal("rendering missing corpus name")
	}
}

func TestTable2Rows(t *testing.T) {
	rows, err := experiments.Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows: %d, want the 7 studied bugs", len(rows))
	}
	for _, r := range rows {
		if r.Steps <= 0 || r.Threads < 3 {
			t.Fatalf("%s: bad row %+v", r.Name, r)
		}
		if r.Kind != "atom" && r.Kind != "race" {
			t.Fatalf("%s: kind %q", r.Name, r.Kind)
		}
	}
	var sb strings.Builder
	experiments.PrintTable2(&sb, rows)
	if !strings.Contains(sb.String(), "mysql-5") {
		t.Fatal("rendering incomplete")
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := experiments.Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// CSVs are a subset of shared comparisons, diffs a subset of
		// comparisons, and both dumps have substance.
		if r.CSVs > r.SharedCompared || r.Diffs > r.VarsCompared || r.CSVs > r.Diffs {
			t.Fatalf("%s: inconsistent diff counts %+v", r.Name, r)
		}
		if r.CSVs == 0 {
			t.Fatalf("%s: no CSVs found", r.Name)
		}
		if r.FailDumpBytes <= 0 || r.PassDumpBytes <= 0 {
			t.Fatalf("%s: empty dumps", r.Name)
		}
		if r.IndexLen <= 0 {
			t.Fatalf("%s: empty failure index", r.Name)
		}
	}
	var sb strings.Builder
	experiments.PrintTable3(&sb, rows)
	if len(strings.Split(sb.String(), "\n")) < 8 {
		t.Fatal("rendering too short")
	}
}

func TestTable4EnhancedAlwaysReproduces(t *testing.T) {
	rows, err := experiments.Table4(context.Background(), 500)
	if err != nil {
		t.Fatal(err)
	}
	var chessTotal, xTotal int
	for _, r := range rows {
		if !r.TempFound || !r.DepFound {
			t.Fatalf("%s: enhanced search failed (temp=%v dep=%v)", r.Name, r.TempFound, r.DepFound)
		}
		chessTotal += r.ChessTries
		xTotal += r.TempTries
	}
	// The central claim: enhanced search needs far fewer tries.
	if xTotal*2 >= chessTotal {
		t.Fatalf("enhanced total %d not clearly below plain CHESS total %d", xTotal, chessTotal)
	}
	var sb strings.Builder
	experiments.PrintTable4(&sb, rows)
	if !strings.Contains(sb.String(), "chessX+temporal") {
		t.Fatal("rendering incomplete")
	}
}

// TestTable4ForkColumns checks Table 4's step columns (added with the
// former prefix-forking layer; every trial now runs cold from step 0):
// with one search worker every try is an executed trial, every
// configuration reports the interpreter steps it cost, and the
// rendering carries the steps column.
func TestTable4ForkColumns(t *testing.T) {
	rows, err := experiments.Table4(context.Background(), 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ChessExecuted != r.ChessTries || r.DepExecuted != r.DepTries || r.TempExecuted != r.TempTries {
			t.Fatalf("%s: executed trials differ from tries %+v", r.Name, r)
		}
		if r.ChessStepsExecuted <= 0 || r.DepStepsExecuted <= 0 || r.TempStepsExecuted <= 0 {
			t.Fatalf("%s: missing executed-step counts %+v", r.Name, r)
		}
	}
	var sb strings.Builder
	experiments.PrintTable4(&sb, rows)
	if !strings.Contains(sb.String(), "steps") {
		t.Fatalf("rendering missing steps column:\n%s", sb.String())
	}
}

func TestTable5BaselineDegrades(t *testing.T) {
	base, err := experiments.Table5(context.Background(), 500)
	if err != nil {
		t.Fatal(err)
	}
	ei, err := experiments.Table4(context.Background(), 1) // cheap: we only need the temporal column? No — rerun small
	if err != nil {
		t.Fatal(err)
	}
	// Instruction-count alignment must never beat execution-index
	// alignment in total tries.
	var baseTries, eiTries int
	for i := range base {
		baseTries += base[i].Tries
		eiTries += ei[i].TempTries
	}
	if baseTries < eiTries {
		t.Fatalf("baseline (%d tries) beat execution indexing (%d tries)", baseTries, eiTries)
	}
	var sb strings.Builder
	experiments.PrintTable5(&sb, base)
	if !strings.Contains(sb.String(), "instrs") {
		t.Fatal("rendering incomplete")
	}
}

func TestTable6AllCostsMeasured(t *testing.T) {
	rows, err := experiments.Table6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DumpCapture <= 0 || r.DumpDiff <= 0 || r.Align <= 0 {
			t.Fatalf("%s: missing cost measurements %+v", r.Name, r)
		}
		if r.Slicing <= 0 {
			t.Fatalf("%s: dependence run must slice", r.Name)
		}
	}
	var sb strings.Builder
	experiments.PrintTable6(&sb, rows)
	if !strings.Contains(sb.String(), "slicing") {
		t.Fatal("rendering incomplete")
	}
}

func TestFig10WithinPaperBand(t *testing.T) {
	rows, err := experiments.Fig10(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("subjects: %d", len(rows))
	}
	var sum float64
	for _, r := range rows {
		if r.Percent < -0.01 || r.Percent > 6 {
			t.Fatalf("%s: overhead %.2f%% out of band", r.Name, r.Percent)
		}
		sum += r.Percent
	}
	if avg := sum / float64(len(rows)); avg > 3 {
		t.Fatalf("average overhead %.2f%%", avg)
	}
	var sb strings.Builder
	experiments.PrintFig10(&sb, rows)
	if !strings.Contains(sb.String(), "average overhead") {
		t.Fatal("rendering incomplete")
	}
}
