package coredump_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"heisendump/internal/core"
	"heisendump/internal/coredump"
	"heisendump/internal/gen"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/workloads"
)

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzCompare's Table 2 seeds from the current code")

// referenceCompare is the path-map comparison Compare replaced: it
// traverses both dumps, maps the second's locations by reference path
// (the last location wins a path several share) and looks up each of
// the first's in traversal order.
func referenceCompare(a, b *coredump.Dump) *coredump.DiffResult {
	la := a.Traverse()
	lb := b.Traverse()
	mb := make(map[string]coredump.Location, len(lb))
	for _, loc := range lb {
		mb[loc.Path] = loc
	}
	res := &coredump.DiffResult{}
	for _, locA := range la {
		locB, ok := mb[locA.Path]
		if !ok {
			continue
		}
		res.VarsCompared++
		if locA.Shared && locB.Shared {
			res.SharedCompared++
		}
		if locA.Value != locB.Value {
			res.Diffs = append(res.Diffs, coredump.ValueDiff{
				Path:   locA.Path,
				A:      locA.Value,
				B:      locB.Value,
				Shared: locA.Shared && locB.Shared,
				AVar:   locA.Var,
				BVar:   locB.Var,
			})
		}
	}
	return res
}

// checkCompare compares a with b, b with a and each with itself, by
// Compare and by the reference, and reports the first disagreement.
func checkCompare(a, b *coredump.Dump) error {
	for _, p := range [][2]*coredump.Dump{{a, b}, {b, a}, {a, a}, {b, b}} {
		got, want := coredump.Compare(p[0], p[1]), referenceCompare(p[0], p[1])
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Compare = %+v\nreference = %+v", got, want)
		}
	}
	return nil
}

// checkSize checks Size against Encode's output.
func checkSize(d *coredump.Dump) error {
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		return err
	}
	n, err := d.Size()
	if err != nil || n != buf.Len() {
		return fmt.Errorf("Size() = %d, %v; Encode wrote %d bytes", n, err, buf.Len())
	}
	return nil
}

// comparePair is one failure dump and the aligned-point dump of its
// analysis.
type comparePair struct {
	name       string
	fail, pass *coredump.Dump
}

// analysisPairs provokes each Table 2 bug, fig1 and generated programs
// 1-40 and returns the failure and aligned dumps under execution-index
// and instruction-count alignment, each also anonymized.
func analysisPairs(t *testing.T, generated bool) []comparePair {
	t.Helper()
	type subject struct {
		name  string
		prog  *ir.Program
		input *interp.Input
	}
	var subs []subject
	for _, w := range append(workloads.Bugs(), workloads.Fig1) {
		cp, err := w.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, subject{w.Name, cp, w.Input})
	}
	if generated {
		for seed := int64(1); seed <= 40; seed++ {
			p := gen.Generate(seed)
			cp, err := p.Compile(true)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, subject{fmt.Sprintf("gen-%d", seed), cp, p.Input})
		}
	}
	ctx := context.Background()
	var pairs []comparePair
	for _, sub := range subs {
		var fail *core.FailureReport
		for _, al := range []core.AlignmentMethod{core.AlignByIndex, core.AlignByInstructionCount} {
			p := core.NewPipeline(sub.prog, sub.input, core.Config{Alignment: al, Workers: 1})
			if fail == nil {
				var err error
				if fail, err = p.ProvokeFailureContext(ctx); err != nil {
					t.Fatalf("%s: provoke: %v", sub.name, err)
				}
			}
			an := p.NewAnalysis(fail)
			if err := an.ThroughContext(ctx, core.StageAlignedDump); err != nil {
				t.Fatalf("%s/%v: %v", sub.name, al, err)
			}
			name := sub.name + "-" + al.String()
			pass := an.Report.AlignedDump
			pairs = append(pairs, comparePair{name, fail.Dump, pass})
			keep := coredump.KeepLoopCounters(sub.prog)
			pairs = append(pairs, comparePair{name + "-anon", fail.Dump.Anonymize(7, keep), pass.Anonymize(7, keep)})
		}
	}
	return pairs
}

// TestCompareMatchesReference: on the failure and aligned dumps of
// every Table 2 bug, fig1 and generated programs 1-40, under both
// alignments and anonymized, Compare returns exactly the reference's
// result, in both directions: counts, differences in order, paths,
// values, sharing and both dumps' location identities.
func TestCompareMatchesReference(t *testing.T) {
	pairs := analysisPairs(t, true)
	diffs := 0
	for _, p := range pairs {
		if err := checkCompare(p.fail, p.pass); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		diffs += len(coredump.Compare(p.fail, p.pass).Diffs)
	}
	if diffs == 0 {
		t.Fatal("no pair differs; the comparison of differences went untested")
	}
	t.Logf("%d pairs, %d differences", len(pairs), diffs)
}

// TestCompareAllocsConstant: comparing a dump with itself allocates
// the result and nothing that grows with the dump's locations.
func TestCompareAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	for _, n := range []int{4, 64, 1024} {
		d := wideDump(n)
		allocs := testing.AllocsPerRun(50, func() { coredump.Compare(d, d) })
		if allocs > 2 {
			t.Fatalf("%d-object dump: Compare(d, d) makes %.1f allocations, want at most 2", n, allocs)
		}
	}
}

// TestSizeAllocatesNothing: Size counts the encoding without building
// it.
func TestSizeAllocatesNothing(t *testing.T) {
	d := wideDump(256)
	if err := checkSize(d); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { d.Size() }); allocs != 0 {
		t.Fatalf("Size makes %.1f allocations", allocs)
	}
}

// wideDump is a dump of n globals and an n-element array, an n-object
// heap list hanging off one global and a failing frame whose local
// points into it.
func wideDump(n int) *coredump.Dump {
	d := &coredump.Dump{
		Globals: map[string]interp.Value{},
		Arrays:  map[string][]int64{"arr": make([]int64, n)},
		Heap:    map[interp.ObjID]map[string]interp.Value{},
		Threads: []coredump.ThreadDump{{Frames: []coredump.FrameDump{{FuncName: "main",
			Locals: map[string]interp.Value{"p": interp.PtrVal(interp.ObjID(n / 2))}}}}},
	}
	for i := range n {
		d.Globals[fmt.Sprintf("g%d", i)] = interp.IntVal(int64(i))
		next := interp.PtrVal(interp.ObjID(i + 2))
		if i == n-1 {
			next = interp.Null
		}
		d.Heap[interp.ObjID(i+1)] = map[string]interp.Value{"val": interp.IntVal(int64(i)), "next": next}
	}
	d.Globals["head"] = interp.PtrVal(1)
	return d
}

// FuzzCompare decodes two small dumps from its input (see decodeDumps)
// and checks Compare against the reference in both directions, and
// Size against Encode for both dumps. The seeds are hand-made pairs
// with shared heap targets, cycles, null and dangling pointers and
// pointer locals in failing frames of one function, and, under
// testdata/fuzz/FuzzCompare, the failure and aligned dumps of the
// Table 2 bugs and fig1.
func FuzzCompare(f *testing.F) {
	for _, p := range handMadePairs() {
		f.Add(encodeDumps(p.fail, p.pass))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := decodeDumps(data)
		if err := checkCompare(a, b); err != nil {
			t.Fatal(err)
		}
		for _, d := range []*coredump.Dump{a, b} {
			if err := checkSize(d); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestCompareSeedsCurrent: the checked-in Table 2 seeds of FuzzCompare
// are the encodings of the current failure and aligned dumps. Run with
// -update to rewrite them.
func TestCompareSeedsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCompare")
	for _, p := range analysisPairs(t, false) {
		if strings.HasSuffix(p.name, "-anon") {
			continue
		}
		data := encodeDumps(p.fail, p.pass)
		a, b := decodeDumps(data)
		if !reflect.DeepEqual(a, p.fail) || !reflect.DeepEqual(b, p.pass) {
			t.Fatalf("%s: the seed encoding does not round-trip", p.name)
		}
		file := filepath.Join(dir, p.name)
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if *updateSeeds {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%v (run with -update)", err)
		}
		if string(got) != body {
			t.Fatalf("%s is stale (run with -update)", file)
		}
	}
}

// handMadePairs are dump pairs that exercise the walk's corner cases:
// a heap object two roots share, a cycle, null and dangling pointers,
// pointer locals in two frames of one function, objects the two dumps
// allocated in different orders, and nil and empty maps.
func handMadePairs() []comparePair {
	obj := func(fields ...any) map[string]interp.Value {
		m := map[string]interp.Value{}
		for i := 0; i < len(fields); i += 2 {
			m[fields[i].(string)] = fields[i+1].(interp.Value)
		}
		return m
	}
	ptr := func(o int) interp.Value { return interp.PtrVal(interp.ObjID(o)) }
	frame := func(fn string, id int64, locals map[string]interp.Value) coredump.FrameDump {
		return coredump.FrameDump{FuncName: fn, FrameID: id, Locals: locals}
	}
	a := &coredump.Dump{
		Program: "corners", Reason: "null pointer dereference", FailingThread: 1, PC: ir.PC{F: 2, I: 5},
		Globals: map[string]interp.Value{"head": ptr(1), "alias": ptr(2), "n": interp.IntVal(3), "gone": ptr(40)},
		Arrays:  map[string][]int64{"a": {1, -2, 300}},
		Heap: map[interp.ObjID]map[string]interp.Value{
			1: obj("next", ptr(2), "val", interp.IntVal(10)),
			2: obj("next", ptr(1), "val", interp.IntVal(20), "ok", interp.BoolVal(true)),
			3: obj("val", interp.IntVal(-5)),
		},
		Locks: map[string]int{"m": 1, "l": -1},
		Threads: []coredump.ThreadDump{
			{ID: 0, Frames: []coredump.FrameDump{frame("main", 1, map[string]interp.Value{"i": interp.IntVal(2)})}},
			{ID: 1, Status: interp.Blocked, WaitLock: "m", Steps: 99, Frames: []coredump.FrameDump{
				frame("walk", 2, map[string]interp.Value{"p": ptr(3), "k": interp.IntVal(1)}),
				frame("walk", 3, map[string]interp.Value{"p": ptr(2), "q": interp.Null}),
			}},
		},
		Output:     []int64{1, 1 << 40},
		TotalSteps: 1234,
	}
	b := &coredump.Dump{
		Program: "corners", Reason: "aligned point", FailingThread: 1,
		Globals: map[string]interp.Value{"head": ptr(2), "alias": ptr(2), "n": interp.IntVal(4), "gone": interp.Null},
		Arrays:  map[string][]int64{"a": {1, 2}, "b": {}},
		Heap: map[interp.ObjID]map[string]interp.Value{
			1: obj("val", interp.IntVal(20), "next", ptr(2)),
			2: obj("next", ptr(1), "val", interp.IntVal(11)),
			5: nil,
		},
		Threads: []coredump.ThreadDump{
			{ID: 1, Frames: []coredump.FrameDump{
				frame("walk", 4, map[string]interp.Value{"p": ptr(1), "k": interp.IntVal(2)}),
				frame("walk", 5, map[string]interp.Value{"p": ptr(5)}),
				frame("leaf", 6, nil),
			}},
		},
	}
	return []comparePair{{"corners", a, b}, {"empty", &coredump.Dump{}, a}}
}

// The fuzz encoding of a dump pair: the two dumps back to back, each a
// sequence of fields read by a byteReader. Past the input's end every
// read is zero, so every input decodes. A count is a varint clipped to
// the bytes left, names are identifiers (so reference paths of
// different kinds cannot coincide, as in a program's dumps), and a
// flags byte makes maps nil.
//
//	dump   = flags str(Program) str(Reason) int(FailingThread) pc
//	         count{name value}(Globals) count{name count{int}}(Arrays)
//	         count{int(id) count{name value}}(Heap) count{str int}(Locks)
//	         count{int}(Output) int(TotalSteps) count{thread}
//	thread = int(ID) int(Status) str(WaitLock) int(Steps) count{frame}
//	frame  = flags int(Func) name(FuncName) int(PC) pc(CallSite)
//	         int(FrameID) count{name value}(Locals)
//	pc     = int int
//	value  = byte(kind mod 3) int(Num)
//	name   = byte(n < 128 picks a common name, else n-128 identifier
//	         characters)
//	str    = count{byte}
type byteReader struct{ data []byte }

func (r *byteReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *byteReader) int() int64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b := r.byte()
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	return int64(x>>1) ^ -int64(x&1)
}

func (r *byteReader) count() int { return int(min(uint64(r.int()), uint64(len(r.data)))) }

// commonNames are the names a small byte picks, so that two fuzzed
// dumps share names often.
var commonNames = []string{"", "a", "b", "p", "q", "next", "val", "main", "walk", "m"}

const identChars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"

func (r *byteReader) name() string {
	b := r.byte()
	if b < 0x80 {
		return commonNames[int(b)%len(commonNames)]
	}
	s := make([]byte, min(int(b-0x80), len(r.data)))
	for i := range s {
		s[i] = identChars[int(r.byte())%len(identChars)]
	}
	return string(s)
}

func (r *byteReader) str() string {
	s := make([]byte, r.count())
	for i := range s {
		s[i] = r.byte()
	}
	return string(s)
}

func (r *byteReader) pc() ir.PC { return ir.PC{F: int(r.int()), I: int(r.int())} }

func (r *byteReader) value() interp.Value {
	return interp.Value{Kind: interp.Kind(r.byte() % 3), Num: r.int()}
}

func (r *byteReader) values(nilMap bool) map[string]interp.Value {
	n := r.count()
	var m map[string]interp.Value
	if !nilMap {
		m = map[string]interp.Value{}
	}
	for range n {
		k, v := r.name(), r.value()
		if m != nil {
			m[k] = v
		}
	}
	return m
}

func decodeDumps(data []byte) (a, b *coredump.Dump) {
	r := &byteReader{data}
	return r.dump(), r.dump()
}

func (r *byteReader) dump() *coredump.Dump {
	flags := r.byte()
	d := &coredump.Dump{Program: r.str(), Reason: r.str(), FailingThread: int(r.int()), PC: r.pc()}
	d.Globals = r.values(flags&1 != 0)
	n := r.count()
	if flags&2 == 0 {
		d.Arrays = map[string][]int64{}
	}
	for range n {
		name, n := r.name(), r.count()
		var arr []int64
		if n > 0 {
			arr = make([]int64, n)
		}
		for i := range arr {
			arr[i] = r.int()
		}
		if d.Arrays != nil {
			d.Arrays[name] = arr
		}
	}
	n = r.count()
	if flags&4 == 0 {
		d.Heap = map[interp.ObjID]map[string]interp.Value{}
	}
	for range n {
		id, fields := interp.ObjID(r.int()), r.values(false)
		if d.Heap != nil {
			d.Heap[id] = fields
		}
	}
	n = r.count()
	if flags&8 == 0 {
		d.Locks = map[string]int{}
	}
	for range n {
		name, holder := r.str(), int(r.int())
		if d.Locks != nil {
			d.Locks[name] = holder
		}
	}
	if n := r.count(); n > 0 {
		d.Output = make([]int64, n)
		for i := range d.Output {
			d.Output[i] = r.int()
		}
	}
	d.TotalSteps = r.int()
	for range r.count() {
		t := coredump.ThreadDump{ID: int(r.int()), Status: interp.ThreadStatus(r.int()), WaitLock: r.str(), Steps: r.int()}
		for range r.count() {
			flags := r.byte()
			fr := coredump.FrameDump{Func: int(r.int()), FuncName: r.name(), PC: int(r.int()), CallSite: r.pc(), FrameID: r.int()}
			fr.Locals = r.values(flags&1 != 0)
			t.Frames = append(t.Frames, fr)
		}
		d.Threads = append(d.Threads, t)
	}
	return d
}

// encodeDumps writes a pair in the fuzz encoding, maps in key order.
// Names must be identifiers of at most 127 characters.
func encodeDumps(a, b *coredump.Dump) []byte {
	var w byteWriter
	w.dump(a)
	w.dump(b)
	return w.data
}

type byteWriter struct{ data []byte }

func (w *byteWriter) byte(b byte) { w.data = append(w.data, b) }

func (w *byteWriter) int(v int64) { w.data = binary.AppendVarint(w.data, v) }

func (w *byteWriter) name(s string) {
	w.byte(byte(0x80 + len(s)))
	for i := range len(s) {
		w.byte(byte(strings.IndexByte(identChars, s[i])))
	}
}

func (w *byteWriter) str(s string) {
	w.int(int64(len(s)))
	w.data = append(w.data, s...)
}

func (w *byteWriter) pc(pc ir.PC) { w.int(int64(pc.F)); w.int(int64(pc.I)) }

func (w *byteWriter) values(m map[string]interp.Value) {
	w.int(int64(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		w.name(k)
		w.byte(byte(m[k].Kind))
		w.int(m[k].Num)
	}
}

func nilFlag(isNil bool, bit byte) byte {
	if isNil {
		return bit
	}
	return 0
}

func (w *byteWriter) dump(d *coredump.Dump) {
	w.byte(nilFlag(d.Globals == nil, 1) | nilFlag(d.Arrays == nil, 2) | nilFlag(d.Heap == nil, 4) | nilFlag(d.Locks == nil, 8))
	w.str(d.Program)
	w.str(d.Reason)
	w.int(int64(d.FailingThread))
	w.pc(d.PC)
	w.values(d.Globals)
	w.int(int64(len(d.Arrays)))
	for _, name := range slices.Sorted(maps.Keys(d.Arrays)) {
		w.name(name)
		w.int(int64(len(d.Arrays[name])))
		for _, v := range d.Arrays[name] {
			w.int(v)
		}
	}
	w.int(int64(len(d.Heap)))
	for _, id := range slices.Sorted(maps.Keys(d.Heap)) {
		w.int(int64(id))
		w.values(d.Heap[id])
	}
	w.int(int64(len(d.Locks)))
	for _, name := range slices.Sorted(maps.Keys(d.Locks)) {
		w.str(name)
		w.int(int64(d.Locks[name]))
	}
	w.int(int64(len(d.Output)))
	for _, v := range d.Output {
		w.int(v)
	}
	w.int(d.TotalSteps)
	w.int(int64(len(d.Threads)))
	for _, t := range d.Threads {
		w.int(int64(t.ID))
		w.int(int64(t.Status))
		w.str(t.WaitLock)
		w.int(t.Steps)
		w.int(int64(len(t.Frames)))
		for _, fr := range t.Frames {
			w.byte(nilFlag(fr.Locals == nil, 1))
			w.int(int64(fr.Func))
			w.name(fr.FuncName)
			w.int(int64(fr.PC))
			w.pc(fr.CallSite)
			w.int(fr.FrameID)
			w.values(fr.Locals)
		}
	}
}
