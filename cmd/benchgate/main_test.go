package main

import (
	"strings"
	"testing"
)

const baselineDoc = `{"table":"table4","rows":[
  {"Name":"apache-1","ChessTries":44,"ChessFound":true,"TempTries":4,"TempFound":true,"TempTime":123456},
  {"Name":"apache-2","ChessTries":2000,"ChessFound":false,"TempTries":460,"TempFound":true,"TempTime":99}
]}
{"table":"table5","rows":[{"Name":"apache-1","Tries":7,"Reproduced":true,"Time":5}]}
`

func sections(t *testing.T, doc string) map[string][]map[string]any {
	t.Helper()
	out, err := parseSections(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompareIdenticalPasses(t *testing.T) {
	diffs, checked := compare(sections(t, baselineDoc), sections(t, baselineDoc))
	if len(diffs) != 0 {
		t.Fatalf("unexpected diffs: %v", diffs)
	}
	// table4: 2 rows x 5 gated fields; table5: 1 row x 3 gated fields.
	if checked != 13 {
		t.Fatalf("checked %d gated fields, want 13", checked)
	}
}

func TestCompareIgnoresCostFields(t *testing.T) {
	fresh := sections(t, strings.ReplaceAll(baselineDoc, `"TempTime":123456`, `"TempTime":777`))
	diffs, _ := compare(fresh, sections(t, baselineDoc))
	if len(diffs) != 0 {
		t.Fatalf("cost-field change gated: %v", diffs)
	}
}

func TestCompareCatchesTriesDrift(t *testing.T) {
	fresh := sections(t, strings.ReplaceAll(baselineDoc, `"TempTries":460`, `"TempTries":461`))
	diffs, _ := compare(fresh, sections(t, baselineDoc))
	if len(diffs) != 1 || !strings.Contains(diffs[0], "TempTries") {
		t.Fatalf("tries drift not caught: %v", diffs)
	}
}

func TestCompareCatchesFoundDrift(t *testing.T) {
	fresh := sections(t, strings.ReplaceAll(baselineDoc, `"ChessFound":false`, `"ChessFound":true`))
	diffs, _ := compare(fresh, sections(t, baselineDoc))
	if len(diffs) != 1 || !strings.Contains(diffs[0], "ChessFound") {
		t.Fatalf("found drift not caught: %v", diffs)
	}
}

func TestCompareCatchesDroppedGatedField(t *testing.T) {
	fresh := sections(t, strings.ReplaceAll(baselineDoc, `"TempFound":true,`, ``))
	diffs, _ := compare(fresh, sections(t, baselineDoc))
	if len(diffs) != 2 { // both table4 rows lost the column
		t.Fatalf("dropped gated field not caught: %v", diffs)
	}
	for _, d := range diffs {
		if !strings.Contains(d, "TempFound") || !strings.Contains(d, "missing from fresh") {
			t.Fatalf("unexpected diff: %q", d)
		}
	}
}

func TestCompareSubsetOfBaselineTables(t *testing.T) {
	fresh := sections(t, `{"table":"table4","rows":[
  {"Name":"apache-1","ChessTries":44,"ChessFound":true,"TempTries":4,"TempFound":true,"TempTime":1},
  {"Name":"apache-2","ChessTries":2000,"ChessFound":false,"TempTries":460,"TempFound":true,"TempTime":2}
]}`)
	diffs, _ := compare(fresh, sections(t, baselineDoc))
	if len(diffs) != 0 {
		t.Fatalf("gating one table against a full baseline failed: %v", diffs)
	}
}

const alignBaseline = `{"table":"table3","rows":[{"Name":"apache-1","FailDumpBytes":1032,"PassDumpBytes":1009,"VarsCompared":18,"Diffs":4,"SharedCompared":8,"CSVs":3,"IndexLen":6,"AlignKind":2,"StressAttempts":1}]}
{"table":"table5","rows":[{"Name":"apache-1","ThreadInstrs":212,"Tries":7,"Reproduced":true,"Time":5}]}
`

// TestCompareCatchesAlignmentDrift: Table 3's alignment and dump
// columns and Table 5's ThreadInstrs gate by exact equality.
func TestCompareCatchesAlignmentDrift(t *testing.T) {
	diffs, checked := compare(sections(t, alignBaseline), sections(t, alignBaseline))
	if len(diffs) != 0 {
		t.Fatalf("unexpected diffs: %v", diffs)
	}
	// table3: Name + 9 columns; table5: Name, ThreadInstrs, Tries, Reproduced.
	if checked != 14 {
		t.Fatalf("checked %d gated fields, want 14", checked)
	}
	for _, c := range []struct{ field, from, to string }{
		{"AlignKind", `"AlignKind":2`, `"AlignKind":1`},
		{"CSVs", `"CSVs":3`, `"CSVs":2`},
		{"ThreadInstrs", `"ThreadInstrs":212`, `"ThreadInstrs":213`},
	} {
		fresh := sections(t, strings.ReplaceAll(alignBaseline, c.from, c.to))
		diffs, _ := compare(fresh, sections(t, alignBaseline))
		if len(diffs) != 1 || !strings.Contains(diffs[0], c.field) {
			t.Fatalf("%s drift not caught: %v", c.field, diffs)
		}
	}
}

const interpBaseline = `{"table":"interp","rows":[{"Name":"mysql-1","AllocsPerStep":0,"Steps":238}]}
`

// TestCompareAllocsCeiling: AllocsPerStep gates as a ceiling — noise
// within the tolerance and genuine improvements pass, a regression
// above the baseline budget fails.
func TestCompareAllocsCeiling(t *testing.T) {
	within := sections(t, strings.ReplaceAll(interpBaseline, `"AllocsPerStep":0`, `"AllocsPerStep":0.004`))
	diffs, checked := compare(within, sections(t, interpBaseline))
	if len(diffs) != 0 {
		t.Fatalf("noise within tolerance gated: %v", diffs)
	}
	if checked != 2 { // Name + AllocsPerStep
		t.Fatalf("checked %d gated fields, want 2", checked)
	}

	over := sections(t, strings.ReplaceAll(interpBaseline, `"AllocsPerStep":0`, `"AllocsPerStep":0.5`))
	diffs, _ = compare(over, sections(t, interpBaseline))
	if len(diffs) != 1 || !strings.Contains(diffs[0], "AllocsPerStep") || !strings.Contains(diffs[0], "budget") {
		t.Fatalf("allocs regression not caught: %v", diffs)
	}

	baselineWithBudget := strings.ReplaceAll(interpBaseline, `"AllocsPerStep":0`, `"AllocsPerStep":0.5`)
	improved := sections(t, interpBaseline)
	diffs, _ = compare(improved, sections(t, baselineWithBudget))
	if len(diffs) != 0 {
		t.Fatalf("allocs improvement gated: %v", diffs)
	}
}

// TestCompareAllocsNonNumeric: a ceiling-gated field that stops being
// numeric is drift, not a silent pass.
func TestCompareAllocsNonNumeric(t *testing.T) {
	fresh := sections(t, strings.ReplaceAll(interpBaseline, `"AllocsPerStep":0`, `"AllocsPerStep":"n/a"`))
	diffs, _ := compare(fresh, sections(t, interpBaseline))
	if len(diffs) != 1 || !strings.Contains(diffs[0], "AllocsPerStep") {
		t.Fatalf("non-numeric allocs field not caught: %v", diffs)
	}
}

const interpTimingBaseline = `{"table":"interp","rows":[{"Name":"mysql-1","AllocsPerStep":0,"NsPerStep":20,"StepsPerSec":50000000,"SearchNs":2500000,"Steps":238}]}
`

// TestCompareTimingHeadroom: NsPerStep and SearchNs gate as headroom
// ceilings — a slower machine (within the factor) and improvements
// pass, a gross regression fails.
func TestCompareTimingHeadroom(t *testing.T) {
	slower := strings.ReplaceAll(interpTimingBaseline, `"NsPerStep":20`, `"NsPerStep":55`)
	slower = strings.ReplaceAll(slower, `"SearchNs":2500000`, `"SearchNs":7000000`)
	diffs, checked := compare(sections(t, slower), sections(t, interpTimingBaseline))
	if len(diffs) != 0 {
		t.Fatalf("timing within headroom gated: %v", diffs)
	}
	if checked != 4 { // Name, AllocsPerStep, NsPerStep, SearchNs
		t.Fatalf("checked %d gated fields, want 4", checked)
	}

	gross := sections(t, strings.ReplaceAll(interpTimingBaseline, `"NsPerStep":20`, `"NsPerStep":65`))
	diffs, _ = compare(gross, sections(t, interpTimingBaseline))
	if len(diffs) != 1 || !strings.Contains(diffs[0], "NsPerStep") || !strings.Contains(diffs[0], "headroom") {
		t.Fatalf("ns/step regression not caught: %v", diffs)
	}

	grossSearch := sections(t, strings.ReplaceAll(interpTimingBaseline, `"SearchNs":2500000`, `"SearchNs":9000000`))
	diffs, _ = compare(grossSearch, sections(t, interpTimingBaseline))
	if len(diffs) != 1 || !strings.Contains(diffs[0], "SearchNs") {
		t.Fatalf("search-time regression not caught: %v", diffs)
	}

	improved := sections(t, strings.ReplaceAll(interpTimingBaseline, `"NsPerStep":20`, `"NsPerStep":5`))
	diffs, _ = compare(improved, sections(t, interpTimingBaseline))
	if len(diffs) != 0 {
		t.Fatalf("timing improvement gated: %v", diffs)
	}
}

const stepsBaseline = `{"table":"table4","rows":[{"Name":"apache-2","ChessTries":2000,"ChessFound":false,"ChessExecuted":2000,"ChessStepsExecuted":1500000}]}
`

// TestCompareStepsExecutedCeiling: StepsExecuted columns gate as
// ceilings — a search executing fewer interpreter steps than the
// baseline passes, a search executing more fails, and the Executed
// trial-count column is informational.
func TestCompareStepsExecutedCeiling(t *testing.T) {
	diffs, checked := compare(sections(t, stepsBaseline), sections(t, stepsBaseline))
	if len(diffs) != 0 {
		t.Fatalf("identical steps gated: %v", diffs)
	}
	if checked != 4 { // Name, ChessTries, ChessFound, ChessStepsExecuted
		t.Fatalf("checked %d gated fields, want 4", checked)
	}

	improved := sections(t, strings.ReplaceAll(stepsBaseline, `"ChessStepsExecuted":1500000`, `"ChessStepsExecuted":600000`))
	diffs, _ = compare(improved, sections(t, stepsBaseline))
	if len(diffs) != 0 {
		t.Fatalf("steps improvement gated: %v", diffs)
	}

	regressed := sections(t, strings.ReplaceAll(stepsBaseline, `"ChessStepsExecuted":1500000`, `"ChessStepsExecuted":1500001`))
	diffs, _ = compare(regressed, sections(t, stepsBaseline))
	if len(diffs) != 1 || !strings.Contains(diffs[0], "ChessStepsExecuted") || !strings.Contains(diffs[0], "budget") {
		t.Fatalf("steps regression not caught: %v", diffs)
	}

	executed := sections(t, strings.ReplaceAll(stepsBaseline, `"ChessExecuted":2000`, `"ChessExecuted":2400`))
	diffs, _ = compare(executed, sections(t, stepsBaseline))
	if len(diffs) != 0 {
		t.Fatalf("informational Executed column gated: %v", diffs)
	}
}

func TestCompareMissingTableAndRowCount(t *testing.T) {
	fresh := sections(t, `{"table":"table9","rows":[{"Name":"x","Tries":1}]}`)
	diffs, _ := compare(fresh, sections(t, baselineDoc))
	if len(diffs) != 1 || !strings.Contains(diffs[0], "not in baseline") {
		t.Fatalf("missing table not caught: %v", diffs)
	}
	fresh = sections(t, `{"table":"table5","rows":[]}`)
	diffs, _ = compare(fresh, sections(t, baselineDoc))
	if len(diffs) != 1 || !strings.Contains(diffs[0], "rows") {
		t.Fatalf("row-count drift not caught: %v", diffs)
	}
}
