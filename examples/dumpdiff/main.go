// Dumpdiff: core dumps as first-class artifacts. The example provokes
// the mysql-5 commit/rollback bug, serializes the failure dump to
// disk, reloads it, and walks the reference-path comparison against
// the aligned-point dump — the §4 machinery on its own, without the
// schedule search.
//
//	go run ./examples/dumpdiff
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"heisendump"
	"heisendump/internal/coredump"
)

func main() {
	w := heisendump.WorkloadByName("mysql-5")
	prog, err := w.Compile(true)
	if err != nil {
		log.Fatal(err)
	}
	s := heisendump.NewCompiled(prog, w.Input)
	ctx := context.Background()

	fail, err := s.ProvokeFailure(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// Serialize the failure dump, as a crash handler would.
	dir, err := os.MkdirTemp("", "heisendump")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "failure.core")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := fail.Dump.Encode(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fi, _ := os.Stat(path)
	fmt.Printf("failure dump written to %s (%d bytes)\n", path, fi.Size())

	// Reload and analyze it.
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	reloaded, err := coredump.Decode(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded: thread %d crashed at %s (%s)\n",
		reloaded.FailingThread, prog.FormatPC(reloaded.PC), reloaded.Reason)

	fail.Dump = reloaded
	an, err := s.Analyze(ctx, fail)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\naligned-point dump: %d bytes (%v alignment)\n",
		an.AlignedDumpBytes, an.AlignKind)
	fmt.Printf("%d locations compared (%d shared), %d differ:\n",
		an.Diff.VarsCompared, an.Diff.SharedCompared, len(an.Diff.Diffs))
	for _, d := range an.Diff.Diffs {
		tag := "local"
		if d.Shared {
			tag = "CSV  "
		}
		fmt.Printf("  [%s] %-24s failing=%-8v passing=%v\n", tag, d.Path, d.A, d.B)
	}

	fmt.Println("\nreference paths reachable in the failure dump:")
	for i, loc := range reloaded.Traverse() {
		if i >= 12 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %-28s = %v\n", loc.Path, loc.Value)
	}
}
