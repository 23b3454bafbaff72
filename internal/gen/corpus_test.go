package gen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/corpus.sha256 from the current code")

// corpusGoldenPath holds the hex sha256 of the corpus that
// TestCorpusGolden writes.
const corpusGoldenPath = "testdata/corpus.sha256"

// TestCorpusGolden runs the oracle over seeds 1-100 at cmd/fuzz
// -short's budgets (1500 trials, 3000 stress attempts, 1500 witness
// seeds), writes every verdict's entry with WriteCorpus and pins the
// sha256 of the bytes: the corpus `cmd/fuzz -n 100 -seed 1 -short
// -out` writes. Each entry carries the program, its witness seed and
// schedule, and the search's Found, Tries and Schedule, so a change to
// any of them shows here. Run with -update to rewrite the file.
func TestCorpusGolden(t *testing.T) {
	o := &Oracle{TrialBudget: 1500, StressBudget: 3000, WitnessSeeds: 1500}
	var entries []Entry
	for seed := int64(1); seed <= 100; seed++ {
		p := Generate(seed)
		v, err := o.Check(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(v.Divergences) > 0 || v.Missed {
			t.Fatalf("%s: divergences %v, missed %v", p.Name, v.Divergences, v.Missed)
		}
		entries = append(entries, EntryFor(v))
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	if *updateCorpus {
		if err := os.MkdirAll(filepath.Dir(corpusGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusGoldenPath, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(corpusGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("corpus sha256 %s, golden %s", got, w)
	}
}
