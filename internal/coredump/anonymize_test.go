package coredump_test

import (
	"context"
	"testing"

	"heisendump/internal/core"
	"heisendump/internal/coredump"
	"heisendump/internal/ctrldep"
	"heisendump/internal/index"
	"heisendump/internal/workloads"
)

// TestAnonymizedDumpsYieldSameCSVs: the §7 privacy property — running
// the comparison on anonymized dumps identifies exactly the same
// critical shared variables as on the raw dumps.
func TestAnonymizedDumpsYieldSameCSVs(t *testing.T) {
	for _, name := range []string{"fig1", "apache-1", "mysql-5"} {
		w := workloads.ByName(name)
		prog, err := w.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		p := core.NewPipeline(prog, w.Input, core.Config{})
		fail, err := p.ProvokeFailureContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		an, err := p.AnalyzeContext(context.Background(), fail)
		if err != nil {
			t.Fatal(err)
		}

		keep := coredump.KeepLoopCounters(prog)
		const salt = 0xfeedface
		anonFail := fail.Dump.Anonymize(salt, keep)
		anonPass := an.AlignedDump.Anonymize(salt, keep)

		rawCSVs := pathsOf(coredump.Compare(fail.Dump, an.AlignedDump).CSVs())
		anonCSVs := pathsOf(coredump.Compare(anonFail, anonPass).CSVs())
		if len(rawCSVs) != len(anonCSVs) {
			t.Fatalf("%s: CSV count differs: raw %v vs anon %v", name, rawCSVs, anonCSVs)
		}
		for i := range rawCSVs {
			if rawCSVs[i] != anonCSVs[i] {
				t.Fatalf("%s: CSV paths differ: raw %v vs anon %v", name, rawCSVs, anonCSVs)
			}
		}
	}
}

func pathsOf(diffs []coredump.ValueDiff) []string {
	var out []string
	for _, d := range diffs {
		out = append(out, d.Path)
	}
	return out
}

// TestAnonymizedDumpStillReversesIndex: with loop counters preserved,
// the failure index is recoverable from an anonymized dump and equals
// the index from the raw dump.
func TestAnonymizedDumpStillReversesIndex(t *testing.T) {
	w := workloads.ByName("fig1")
	prog, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(prog, w.Input, core.Config{})
	fail, err := p.ProvokeFailureContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pdeps := ctrldep.AnalyzeProgram(prog)
	raw, err := index.Reverse(prog, pdeps, fail.Dump)
	if err != nil {
		t.Fatal(err)
	}
	anon := fail.Dump.Anonymize(1234, coredump.KeepLoopCounters(prog))
	got, err := index.Reverse(prog, pdeps, anon)
	if err != nil {
		t.Fatalf("reverse on anonymized dump: %v", err)
	}
	if !got.Equal(raw) {
		t.Fatalf("indices differ:\n raw:  %s\n anon: %s", raw.Format(prog), got.Format(prog))
	}
}

// TestAnonymizeHidesValues: tokens differ from the original values and
// different salts yield different tokens.
func TestAnonymizeHidesValues(t *testing.T) {
	w := workloads.ByName("mysql-2")
	prog, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(prog, w.Input, core.Config{})
	fail, err := p.ProvokeFailureContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a1 := fail.Dump.Anonymize(1, nil)
	a2 := fail.Dump.Anonymize(2, nil)
	same, diffSalt := 0, 0
	for k, v := range fail.Dump.Globals {
		if a1.Globals[k] == v {
			same++
		}
		if a1.Globals[k] != a2.Globals[k] {
			diffSalt++
		}
	}
	if same > 0 {
		t.Fatalf("%d global values survived anonymization", same)
	}
	if diffSalt == 0 {
		t.Fatal("salts do not affect tokens")
	}
	if len(a1.Output) != 0 {
		t.Fatal("output log not dropped")
	}
}
