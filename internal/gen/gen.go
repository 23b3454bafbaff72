// Package gen manufactures concurrency-bug subject programs: a
// deterministic, seed-parameterized generator of mini-language
// programs that composes benign structural templates (worker pools,
// producer/consumer queues, lock-striped arrays, bounded barrier
// phases) around one injected bug drawn from a pattern library —
// atomicity violation, order violation, lost update on an array slot,
// broken double-checked flag. Every generated program records its
// ground truth: the intended failure site (the seeded assert and the
// function holding it) and, on demand, a witness interleaving that
// provably crashes there.
//
// The generator exists to exercise the reproduction pipeline on
// programs nobody hand-tuned. The paper's evaluation — mirrored by
// internal/workloads — covers seven hand-ported bugs; gen turns that
// fixed benchmark suite into an unbounded scenario source, and
// gen.Oracle turns each scenario into a differential check of the
// determinism contract (workers 1 vs N must agree bit-for-bit, with
// and without static guidance).
//
// Determinism: Generate is a pure function of the seed. The only
// randomness is a rand.Rand seeded from the program seed (the same
// device internal/workloads uses for the Table 1 corpora); no wall
// clock, no global rand, no map iteration feeds the output, so the
// same seed yields a byte-identical program on every run and every
// machine — which is what lets a corpus file (see corpus.go) name
// programs by seed alone.
package gen

import (
	"fmt"
	"math/rand"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/progcache"
)

// BugKind enumerates the seeded bug pattern library.
type BugKind int

const (
	// Atomicity is a reserve/use split: a shared cursor is bumped and
	// later re-read non-atomically (the mysql-3 shape).
	Atomicity BugKind = iota
	// OrderViolation publishes a ready flag before the object it
	// guards is initialized; a reader trusting the flag dereferences
	// null.
	OrderViolation
	// LostUpdate splits a read-modify-write of one array slot across a
	// synchronization point, so concurrent increments overwrite each
	// other; an audit thread detects the shortfall once all writers
	// are done.
	LostUpdate
	// DoubleCheck is a broken double-checked flag: the flag is
	// published in a first critical section, the object only in a
	// second one, and the fast path checks the flag without the lock.
	DoubleCheck

	numBugKinds
)

// String returns the short pattern tag used in program names, workload
// kinds and assert messages.
func (k BugKind) String() string {
	switch k {
	case Atomicity:
		return "atom"
	case OrderViolation:
		return "order"
	case LostUpdate:
		return "lost"
	case DoubleCheck:
		return "dcl"
	}
	return "?"
}

// BugSpec parameterizes one injected bug.
type BugSpec struct {
	Kind BugKind
	// Iters is the racy loop's per-thread iteration count.
	Iters int
	// Pad is the amount of filler work inside the vulnerability window
	// (wider windows raise the crash rate under random interleaving).
	Pad int
}

// FillerKind enumerates the benign structural templates composed
// around the bug. Fillers contribute threads and synchronization noise
// — the realistic surroundings that make undirected schedule search
// expensive — and are constructed to never crash and never block
// unboundedly under any schedule.
type FillerKind int

const (
	// Mill is the worker-pool template: threads bumping a shared
	// counter under a pool lock (the request mill of the hand-written
	// workloads).
	Mill FillerKind = iota
	// ProducerConsumer is a bounded queue over an array with head/tail
	// cursors, all accesses under one queue lock; the consumer polls a
	// bounded number of times instead of blocking.
	ProducerConsumer
	// LockStripe is a striped array: each thread updates its own
	// stripe under that stripe's lock.
	LockStripe
	// BarrierPhase is a bounded-poll phase barrier: threads announce
	// arrival under a lock, then poll the arrival count a bounded
	// number of times before doing phase-two work.
	BarrierPhase

	numFillerKinds
)

// String names the template.
func (k FillerKind) String() string {
	switch k {
	case Mill:
		return "mill"
	case ProducerConsumer:
		return "prodcons"
	case LockStripe:
		return "stripe"
	case BarrierPhase:
		return "barrier"
	}
	return "?"
}

// FillerSpec parameterizes one filler template instance.
type FillerSpec struct {
	Kind FillerKind
	// Threads is the instance's thread count (Mill honors it exactly;
	// the other templates are structurally two-threaded).
	Threads int
	// Iters sizes the instance's loops.
	Iters int
}

// Spec is the generator's intermediate representation: everything
// Build needs to render the program source. Derive draws a Spec from a
// seed; the shrinker mutates Specs directly, so a shrunken
// counterexample is still a valid, renderable generator product.
type Spec struct {
	Seed    int64
	Bug     BugSpec
	Fillers []FillerSpec
}

// Program is one generated subject program plus its ground truth.
type Program struct {
	// Name identifies the program ("gen-atom-42"); curated corpus
	// entries register under this name in internal/workloads.
	Name string
	// Seed regenerates the program: Generate(Seed) is byte-identical.
	Seed int64
	// Spec is the structure the source was rendered from.
	Spec Spec
	// Source is the program in the mini language.
	Source string
	// Input is the (empty) failure-inducing input; generated programs
	// seed all state through declared initializers.
	Input *interp.Input
	// Threads is the thread count, counting main.
	Threads int

	// Ground truth for the oracle:

	// Kind is the injected bug pattern.
	Kind BugKind
	// Reason is the exact crash reason of the seeded failure
	// ("assertion failed: genbug-...").
	Reason string
	// SiteFunc is the function containing the seeded failure site.
	SiteFunc string
}

// RacyVars returns the injected bug pattern's ground-truth racy
// variables: the base names (global, array or pointer-global) whose
// unsynchronized access pair IS the seeded bug. The static analyzer's
// recall gate (Oracle.Check) requires every one of them to appear in
// the race report; fillers contribute no names here — anything extra
// the analyzer flags is measured as the false-positive rate instead.
func (p *Program) RacyVars() []string {
	switch p.Kind {
	case Atomicity:
		// The cursor bump and the slot write both run unlocked in two
		// racer instances.
		return []string{"gpos", "gbuf"}
	case OrderViolation:
		// The ready flag and the config pointer are published and
		// consumed without the lock.
		return []string{"gready", "gcfg"}
	case LostUpdate:
		// The slot read-modify-write is split around the lock.
		return []string{"gslot"}
	case DoubleCheck:
		// The flag write is locked but the fast-path read is not; the
		// object pointer likewise.
		return []string{"ginit", "gobj"}
	}
	return nil
}

// Description summarizes the program for workload registration.
func (p *Program) Description() string {
	var what string
	switch p.Kind {
	case Atomicity:
		what = "reserve/use of a shared cursor split across a sync point"
	case OrderViolation:
		what = "ready flag published before the object it guards"
	case LostUpdate:
		what = "read-modify-write of an array slot split across a sync point"
	case DoubleCheck:
		what = "flag and object published in separate critical sections"
	}
	return fmt.Sprintf("generated %s bug (seed %d): %s", p.Kind, p.Seed, what)
}

// Compile compiles the generated program, mirroring
// workloads.Workload.Compile — including the shared program cache, so
// the oracle's many configurations of one program compile once.
func (p *Program) Compile(instrument bool) (*ir.Program, error) {
	cp, _, err := progcache.Shared().Get(p.Source, instrument)
	if err != nil {
		return nil, fmt.Errorf("gen: %s: %w", p.Name, err)
	}
	return cp, nil
}

// MustCompile is Compile but panics on error; generated programs are
// compile-clean by construction (pinned by TestEveryProgramCompiles).
func (p *Program) MustCompile(instrument bool) *ir.Program {
	cp, err := p.Compile(instrument)
	if err != nil {
		panic(err)
	}
	return cp
}

// Derive draws a program structure from the seed: one bug pattern with
// drawn parameters, plus one or two filler template instances. All
// draws come from a single seeded rand.Rand, so Derive is a pure
// function of the seed.
func Derive(seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	spec := Spec{Seed: seed}
	spec.Bug = BugSpec{
		Kind:  BugKind(rng.Intn(int(numBugKinds))),
		Iters: 2 + rng.Intn(3), // 2..4
		Pad:   1 + rng.Intn(3), // 1..3
	}
	nFillers := 1 + rng.Intn(2) // 1..2
	for i := 0; i < nFillers; i++ {
		spec.Fillers = append(spec.Fillers, FillerSpec{
			Kind:    FillerKind(rng.Intn(int(numFillerKinds))),
			Threads: 1 + rng.Intn(2), // 1..2 (Mill only)
			Iters:   2 + rng.Intn(4), // 2..5
		})
	}
	return spec
}

// Generate builds the program for a seed: Build(Derive(seed)).
func Generate(seed int64) *Program { return Build(Derive(seed)) }
