// Package coredump captures, serializes, traverses and compares core
// dumps — complete snapshots of a machine's state: per-thread call
// stacks with locals (including the loop counters the reverse
// engineering needs), globals, arrays and the heap.
//
// Comparison follows the paper's §4: memory is traversed from the
// globals and the failing thread's stack in the style of Boehm's
// garbage collector, naming every reachable primitive location by its
// reference path; locations with identical reference paths in two dumps
// are compared, and shared locations with differing values are the
// critical shared variables (CSVs).
package coredump

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"sync"

	"heisendump/internal/interp"
	"heisendump/internal/ir"
)

// FrameDump is one activation record snapshot.
type FrameDump struct {
	// Func is the frame's function index in the program.
	Func int
	// FuncName is recorded for human-readable reports.
	FuncName string
	// PC is the frame's next-instruction index (for the top frame of
	// the failing thread, the faulting instruction).
	PC int
	// CallSite is the caller's call instruction; F == -1 for the bottom
	// frame.
	CallSite ir.PC
	// Locals snapshots the frame's local variables.
	Locals map[string]interp.Value
	// FrameID is the run-unique activation id.
	FrameID int64
}

// ThreadDump is one thread snapshot.
type ThreadDump struct {
	ID       int
	Status   interp.ThreadStatus
	WaitLock string
	Frames   []FrameDump
	// Steps is the thread-local instruction count at capture time,
	// standing in for the hardware instruction counters the paper's
	// Table 5 baseline reads.
	Steps int64
}

// Dump is a complete core dump.
type Dump struct {
	// Program names the dumped program.
	Program string
	// Reason describes why the dump was taken ("null pointer
	// dereference", "aligned point", ...).
	Reason string
	// FailingThread is the faulting (or aligned) thread id.
	FailingThread int
	// PC is the failure (or aligned) program counter.
	PC ir.PC
	// Threads snapshots every thread.
	Threads []ThreadDump
	// Globals, Arrays and Heap snapshot shared memory. Heap objects map
	// field names to values.
	Globals map[string]interp.Value
	Arrays  map[string][]int64
	Heap    map[interp.ObjID]map[string]interp.Value
	// Locks maps each lock to its holder thread, -1 when free.
	Locks map[string]int
	// Output is the run's output log at capture time.
	Output []int64
	// TotalSteps is the machine-wide instruction count.
	TotalSteps int64
}

// Capture snapshots m. The failing thread and PC identify the point
// the dump describes: for a crash, pass the crash thread and PC; for
// an aligned-point dump, the aligned thread and PC.
//
// The machine's slot-addressed storage, heap fields included, is
// re-keyed by source name through the program's name tables, so the
// dump format — and every traversal path derived from it — is
// independent of the slot layout.
func Capture(m *interp.Machine, failingThread int, pc ir.PC, reason string) *Dump {
	d := &Dump{
		Program:       m.Prog.Name,
		Reason:        reason,
		FailingThread: failingThread,
		PC:            pc,
		Globals:       make(map[string]interp.Value, len(m.Globals)),
		Arrays:        make(map[string][]int64, len(m.Arrays)),
		Heap:          make(map[interp.ObjID]map[string]interp.Value, len(m.Heap)),
		Locks:         make(map[string]int, len(m.Locks)),
		Output:        append([]int64(nil), m.Output...),
		TotalSteps:    m.TotalSteps,
	}
	for slot, name := range m.Prog.ScalarNames {
		d.Globals[name] = m.Globals[slot]
	}
	for slot, name := range m.Prog.ArrayNames {
		d.Arrays[name] = append([]int64(nil), m.Arrays[slot]...)
	}
	for i := range m.Heap {
		obj := &m.Heap[i]
		fields := make(map[string]interp.Value, len(obj.Names))
		for j, name := range obj.Names {
			fields[m.Prog.BC.Names[name]] = obj.Vals[j]
		}
		d.Heap[interp.ObjID(i+1)] = fields
	}
	for id, name := range m.Prog.Locks {
		d.Locks[name] = int(m.Locks[id])
	}
	for _, t := range m.Threads {
		td := ThreadDump{ID: t.ID, Status: t.Status, Steps: t.Steps}
		if t.Status == interp.Blocked && t.WaitLock >= 0 {
			td.WaitLock = m.Prog.Locks[t.WaitLock]
		}
		for _, fr := range t.Frames {
			fn := m.Prog.Funcs[fr.FuncIdx]
			fd := FrameDump{
				Func:     fr.FuncIdx,
				FuncName: fn.Name,
				PC:       fr.PC,
				CallSite: fr.CallSite,
				Locals:   make(map[string]interp.Value, len(fr.Locals)),
				FrameID:  fr.ID,
			}
			// Only live (assigned or parameter-bound) locals enter the
			// dump, matching the map-keyed machine that materialized
			// names on first write.
			for slot, live := range fr.Live {
				if live {
					fd.Locals[fn.Locals[slot]] = fr.Locals[slot]
				}
			}
			td.Frames = append(td.Frames, fd)
		}
		d.Threads = append(d.Threads, td)
	}
	return d
}

// CaptureCrash snapshots a crashed machine at its failure point.
func CaptureCrash(m *interp.Machine) (*Dump, error) {
	if m.Crash == nil {
		return nil, fmt.Errorf("coredump: machine has not crashed")
	}
	return Capture(m, m.Crash.ThreadID, m.Crash.PC, m.Crash.Reason), nil
}

// Thread returns the snapshot of thread id, or nil.
func (d *Dump) Thread(id int) *ThreadDump {
	for i := range d.Threads {
		if d.Threads[i].ID == id {
			return &d.Threads[i]
		}
	}
	return nil
}

// FailingFrames returns the failing thread's frames, bottom first.
func (d *Dump) FailingFrames() []FrameDump {
	t := d.Thread(d.FailingThread)
	if t == nil {
		return nil
	}
	return t.Frames
}

// CallingContext renders the failing thread's calling context as
// "main → T1 → F" style text.
func (d *Dump) CallingContext() string {
	var buf bytes.Buffer
	for i, fr := range d.FailingFrames() {
		if i > 0 {
			buf.WriteString(" -> ")
		}
		buf.WriteString(fr.FuncName)
	}
	return buf.String()
}

// Encode writes the dump in gob format.
func (d *Dump) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(d)
}

// Decode reads a dump written by Encode.
func Decode(r io.Reader) (*Dump, error) {
	var d Dump
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}

// Size returns the dump's serialized size in bytes — len of what Encode
// writes — the quantity the paper's Table 3 reports per bug.
//
// Encode's output is Dump's gob type descriptors followed by the value
// message: its length, Dump's type id and the encoded fields. Dump has
// no interface fields, so the descriptors and the type id depend on the
// type alone: Size adds their lengths, measured once against gob, to
// the message length it counts from the dump's fields (see gobBytes),
// without encoding anything.
func (d *Dump) Size() (int, error) {
	c, err := gobConsts()
	if err != nil {
		return 0, err
	}
	msg := c.typeID + d.gobBytes()
	return c.desc + uintLen(uint64(msg)) + msg, nil
}

// gobCalibration holds the type-dependent parts of Encode's output.
type gobCalibration struct {
	// desc is the length of the type descriptors a fresh encoder sends
	// before Dump's first value, and typeID that of Dump's type id at
	// the head of each value message.
	desc, typeID int
}

// gobConsts measures the calibration once: a fresh encoder's output for
// an empty dump, less the same encoder's output for it again, is the
// descriptors; the second output, less its length byte and the fields
// gobBytes counts, is the type id.
var gobConsts = sync.OnceValues(func() (gobCalibration, error) {
	var n countingWriter
	enc := gob.NewEncoder(&n)
	if err := enc.Encode(&Dump{}); err != nil {
		return gobCalibration{}, err
	}
	first := n
	if err := enc.Encode(&Dump{}); err != nil {
		return gobCalibration{}, err
	}
	value := int(n - first)
	return gobCalibration{desc: int(first) - value, typeID: value - 1 - (&Dump{}).gobBytes()}, nil
})

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// gobBytes counts the bytes gob encodes the dump's fields in: each
// struct sends its non-zero fields, each as a one-byte field-number
// delta and its value, then a zero byte; slices and strings are sent
// when non-empty and maps when non-nil, each with its length. Map
// entries, slice elements and nested structs are sent whole, zeros
// included.
func (d *Dump) gobBytes() int {
	var s gobStruct
	s.str(d.Program)
	s.str(d.Reason)
	s.int(int64(d.FailingThread))
	s.field(pcBytes(d.PC))
	if len(d.Threads) > 0 {
		n := uintLen(uint64(len(d.Threads)))
		for i := range d.Threads {
			n += d.Threads[i].gobBytes()
		}
		s.field(n)
	}
	if d.Globals != nil {
		s.field(valuesBytes(d.Globals))
	}
	if d.Arrays != nil {
		n := uintLen(uint64(len(d.Arrays)))
		for name, arr := range d.Arrays {
			n += strLen(name) + int64sLen(arr)
		}
		s.field(n)
	}
	if d.Heap != nil {
		n := uintLen(uint64(len(d.Heap)))
		for id, fields := range d.Heap {
			n += intLen(int64(id)) + valuesBytes(fields)
		}
		s.field(n)
	}
	if d.Locks != nil {
		n := uintLen(uint64(len(d.Locks)))
		for name, holder := range d.Locks {
			n += strLen(name) + intLen(int64(holder))
		}
		s.field(n)
	}
	if len(d.Output) > 0 {
		s.field(int64sLen(d.Output))
	}
	s.int(d.TotalSteps)
	return s.end()
}

func (t *ThreadDump) gobBytes() int {
	var s gobStruct
	s.int(int64(t.ID))
	s.int(int64(t.Status))
	s.str(t.WaitLock)
	if len(t.Frames) > 0 {
		n := uintLen(uint64(len(t.Frames)))
		for i := range t.Frames {
			n += t.Frames[i].gobBytes()
		}
		s.field(n)
	}
	s.int(t.Steps)
	return s.end()
}

func (f *FrameDump) gobBytes() int {
	var s gobStruct
	s.int(int64(f.Func))
	s.str(f.FuncName)
	s.int(int64(f.PC))
	s.field(pcBytes(f.CallSite))
	if f.Locals != nil {
		s.field(valuesBytes(f.Locals))
	}
	s.int(f.FrameID)
	return s.end()
}

// gobStruct counts one struct's encoding: every field is numbered
// below 128, so each sent field adds a one-byte delta.
type gobStruct struct{ n int }

func (s *gobStruct) field(n int) { s.n += 1 + n }

func (s *gobStruct) int(v int64) {
	if v != 0 {
		s.field(intLen(v))
	}
}

func (s *gobStruct) str(v string) {
	if v != "" {
		s.field(strLen(v))
	}
}

func (s *gobStruct) end() int { return s.n + 1 }

func pcBytes(pc ir.PC) int {
	var s gobStruct
	s.int(int64(pc.F))
	s.int(int64(pc.I))
	return s.end()
}

func valueBytes(v interp.Value) int {
	var s gobStruct
	if v.Kind != 0 {
		s.field(uintLen(uint64(v.Kind)))
	}
	s.int(v.Num)
	return s.end()
}

// valuesBytes counts a map of named values: its length, then each name
// and value.
func valuesBytes(m map[string]interp.Value) int {
	n := uintLen(uint64(len(m)))
	for name, v := range m {
		n += strLen(name) + valueBytes(v)
	}
	return n
}

// uintLen is the length of gob's unsigned encoding of x: one byte below
// 128, else a byte count and the big-endian bytes.
func uintLen(x uint64) int {
	if x < 0x80 {
		return 1
	}
	return 1 + (bits.Len64(x)+7)/8
}

// intLen is the length of gob's signed encoding: the sign moved to the
// low bit, then the unsigned encoding.
func intLen(v int64) int {
	if v < 0 {
		return uintLen(uint64(^v)<<1 | 1)
	}
	return uintLen(uint64(v) << 1)
}

func strLen(v string) int { return uintLen(uint64(len(v))) + len(v) }

func int64sLen(vs []int64) int {
	n := uintLen(uint64(len(vs)))
	for _, v := range vs {
		n += intLen(v)
	}
	return n
}

// Var identifies a location in one dump's terms: by source name, with
// an array element's index, a field's owning object (object ids are
// dump-specific) or a local's owning frame. Dumps are keyed by name and
// are read without their program, so Traverse and Compare report
// locations this way; ID translates one into a program's slot ids.
type Var struct {
	Kind interp.VarKind
	// Name is the global, array, local or field name.
	Name string
	// Idx is a VArrayElem's element index.
	Idx int64
	// Obj is a VField's owning object.
	Obj interp.ObjID
	// FrameID is a VLocal's owning activation.
	FrameID int64
}

// String renders the location for reports: "g", "a[3]", "l#9" (frame
// 9) or "obj2.f".
func (v Var) String() string {
	switch v.Kind {
	case interp.VGlobal:
		return v.Name
	case interp.VArrayElem:
		return fmt.Sprintf("%s[%d]", v.Name, v.Idx)
	case interp.VLocal:
		return fmt.Sprintf("%s#%d", v.Name, v.FrameID)
	case interp.VField:
		return fmt.Sprintf("obj%d.%s", v.Obj, v.Name)
	}
	return "var?"
}

// ID translates a shared location into the slot ids a run of prog
// reports it by (interp.VarID): a global's or an array's slot, or a
// field's name id in prog's field-name pool. ok is false when prog has
// no such name, and for a local, which a dump names without its
// function.
func (v Var) ID(prog *ir.Program) (id interp.VarID, ok bool) {
	slot := -1
	switch v.Kind {
	case interp.VGlobal:
		slot = prog.GlobalSlot(v.Name)
	case interp.VArrayElem:
		slot, id.Idx = prog.ArraySlot(v.Name), v.Idx
	case interp.VField:
		slot, id.Idx = int(prog.BC.NameID(v.Name)), int64(v.Obj)
	}
	if slot < 0 {
		return interp.VarID{}, false
	}
	id.Kind, id.Slot = v.Kind, int32(slot)
	return id, true
}

// Location is one primitive storage location found during traversal.
type Location struct {
	// Path is the reference path from a root, e.g. "x", "a[3]",
	// "cache->head->size" or "local:T1.p->val".
	Path string
	// Value is the primitive value at the location.
	Value interp.Value
	// Shared is true for globals, array elements and heap fields;
	// false for the failing thread's stack locals.
	Shared bool
	// Var identifies the location in this dump's terms (object ids are
	// dump-specific; paths are the cross-dump identity).
	Var Var
}

// Traverse enumerates every primitive location reachable from the
// dump's roots: global scalars, global arrays, and the failing
// thread's stack locals, following pointer fields through the heap.
// Each heap object is visited once, via the lexicographically first
// root path that reaches it, making paths canonical across dumps that
// allocated in different orders.
func (d *Dump) Traverse() []Location {
	var out []Location
	visited := map[interp.ObjID]bool{}
	type ptrRoot struct {
		path string
		obj  interp.ObjID
	}
	var queue []ptrRoot
	// emit appends one location. A pointer is compared as a primitive
	// too — null versus non-null is a salient difference — with its
	// value normalized to 0/1 so object ids don't leak into the
	// comparison, and a non-null target is queued for the heap walk.
	emit := func(path string, v interp.Value, shared bool, id Var) {
		if v.Kind == interp.KPtr {
			if v.Obj() != 0 {
				queue = append(queue, ptrRoot{path: path, obj: v.Obj()})
			}
			v = normalizePtr(v)
		}
		out = append(out, Location{Path: path, Value: v, Shared: shared, Var: id})
	}

	// Deterministic root order: globals sorted, then arrays sorted,
	// then the failing thread's frames bottom-up with sorted locals.
	for _, name := range sortedKeys(d.Globals) {
		emit(name, d.Globals[name], true, Var{Kind: interp.VGlobal, Name: name})
	}
	for _, name := range sortedKeys(d.Arrays) {
		arr := d.Arrays[name]
		for i, v := range arr {
			out = append(out, Location{
				Path:   elemPath(name, i),
				Value:  interp.IntVal(v),
				Shared: true,
				Var:    Var{Kind: interp.VArrayElem, Name: name, Idx: int64(i)},
			})
		}
	}
	for _, fr := range d.FailingFrames() {
		prefix := localPrefix(fr.FuncName)
		for _, name := range sortedKeys(fr.Locals) {
			emit(prefix+name, fr.Locals[name], false, Var{Kind: interp.VLocal, Name: name, FrameID: fr.FrameID})
		}
	}

	// Breadth-first heap traversal. The queue is processed in insertion
	// order; roots were enqueued deterministically, so first-visit paths
	// are canonical.
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		if visited[r.obj] {
			continue
		}
		visited[r.obj] = true
		fields, ok := d.Heap[r.obj]
		if !ok {
			continue
		}
		for _, f := range sortedKeys(fields) {
			emit(r.path+"->"+f, fields[f], true, Var{Kind: interp.VField, Name: f, Obj: r.obj})
		}
	}
	return out
}

// elemPath and localPrefix render the reference paths of an array
// element and of a failing frame's locals.
func elemPath(array string, i int) string { return array + "[" + strconv.Itoa(i) + "]" }

func localPrefix(funcName string) string { return "local:" + funcName + "." }

// normalizePtr collapses pointer values to null/non-null so dumps from
// runs with different allocation orders compare meaningfully.
func normalizePtr(v interp.Value) interp.Value {
	if v.Num != 0 {
		return interp.Value{Kind: interp.KPtr, Num: 1}
	}
	return interp.Value{Kind: interp.KPtr, Num: 0}
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ValueDiff is one location whose value differs between two dumps.
type ValueDiff struct {
	Path string
	// A and B are the values in the failing and passing dumps.
	A, B interp.Value
	// Shared marks shared locations; shared diffs are the CSVs.
	Shared bool
	// AVar and BVar identify the location in each dump's terms.
	AVar, BVar Var
}

// DiffResult is the outcome of comparing two dumps.
type DiffResult struct {
	// VarsCompared counts locations present in both dumps (the paper's
	// "vars" column).
	VarsCompared int
	// SharedCompared counts shared locations present in both dumps.
	SharedCompared int
	// Diffs lists all differing locations (the "diffs" column).
	Diffs []ValueDiff
}

// CSVs returns the critical shared variables: shared locations whose
// values differ.
func (r *DiffResult) CSVs() []ValueDiff {
	var out []ValueDiff
	for _, d := range r.Diffs {
		if d.Shared {
			out = append(out, d)
		}
	}
	return out
}
