package ir

import (
	"fmt"

	"heisendump/internal/lang"
)

// This file is the bytecode backend: a Compile-stage pass that lowers
// the source operands (Instr.Src*) of each instruction into a flat
// []Code array, the only form the interpreter executes (interp's
// bytecode.go). It resolves each name where it lowers it, so the
// trial hot path never consults a string-keyed map:
//
//   - a variable is a local of the function (an index into
//     Func.Locals), else a global scalar (into Program.ScalarNames);
//   - an array is a global array (into Program.ArrayNames);
//   - a field name interns into the Names pool.
//
// Callees and locks are resolved by Compile's link step. The name
// tables on Program and Func map slots back to source names, so
// traces, crash reports and core dumps keep speaking names.
//
// Design:
//
//   - Fixed-width ops: one Code is an opcode plus three int32 operands
//     (slots, constant-pool indices, resolved jump targets). The
//     dispatch loop is a single switch over a pc-indexed array — no
//     pointer chasing through expression nodes, no per-node type
//     switches.
//
//   - One ir.Instr lowers to a short run of Codes ending in a BEnd*
//     terminal op (or in the operand word of a compare-and-branch
//     terminal, below). The machine's Frame.PC stays an ir-level
//     instruction index: each interpreter step enters the code array
//     at Entry[fr.PC] and leaves at the terminal, which writes the
//     next ir-level PC (fall-through or a compile-time-resolved branch
//     target). Scheduling therefore interleaves at ir-instruction
//     granularity, and every externally visible PC (traces, crash
//     reports, candidate sites) is an ir PC.
//
//   - A call that binds its result carries its bind code in its own
//     segment, after the BEndCall: the store of the result into the
//     call's lvalue, ending in a generic store terminal whose C
//     operand is 1. The callee's return step runs it on the caller's
//     frame, so the target's index and object reads fire at the
//     return, and the terminal leaves the caller's PC where the call
//     advanced it.
//
//   - Superinstructions collapse the dominant shapes of the trial hot
//     path into single ops: local/global increments (loop counters),
//     register-style moves, constant stores, array element access with
//     a local index, and two-operand compares. They fire the same hook
//     events, in the same order, as the generic sequence they replace.
//
//   - A branch whose whole condition is one of the six fused compare
//     shapes lowers to one compare-and-branch terminal (BEndBrLL and
//     its five siblings): the compare's operands in A and B, its ExprOp
//     in C, and its two ir targets in an operand word after it, a
//     BTargets code (true target in A, false in B) that ends the
//     segment and is never dispatched. Code keeps three operands and
//     16 bytes; the word is one load on the branch's own path.
//
//   - Constants are interned into a per-program pool (Bytecode.Consts)
//     so operands stay int32 while literals keep their full int64
//     range. Field names intern into Names, and each `new`'s field
//     list into FieldSets as a list of those names' ids.
//
//   - Src is the per-op source map: Src[pc] is the ir instruction
//     index the op was lowered from, so diagnostics and profilers can
//     recover the Instr (and through it the Src* AST and line) for any
//     bytecode position.

// ExprOp enumerates the operators as the bytecode encodes them: in
// BBinop's A operand and a fused compare's C operand. ExNot and ExNeg,
// which BNot and BNeg imply, keep their place in the numbering.
type ExprOp uint8

const (
	ExNot ExprOp = iota
	ExNeg
	ExAdd
	ExSub
	ExMul
	ExDiv
	ExMod
	ExEq
	ExNe
	ExLt
	ExLe
	ExGt
	ExGe
	ExLAnd
	ExLOr
)

// binOps maps a source binary operator to its ExprOp.
var binOps = map[string]ExprOp{
	"+": ExAdd, "-": ExSub, "*": ExMul, "/": ExDiv, "%": ExMod,
	"==": ExEq, "!=": ExNe, "<": ExLt, "<=": ExLe, ">": ExGt, ">=": ExGe,
	"&&": ExLAnd, "||": ExLOr,
}

// BOp enumerates bytecode opcodes. Ops named BEnd* are terminals: they
// complete the current ir instruction, advance the ir-level PC, and
// end the interpreter step.
type BOp uint8

const (
	// ---- pushes ----

	// BConstInt pushes integer constant Consts[A].
	BConstInt BOp = iota
	// BConstBool pushes the boolean A (0 or 1).
	BConstBool
	// BConstNull pushes the null pointer.
	BConstNull
	// BLoadLocal pushes the current frame's local slot A.
	BLoadLocal
	// BLoadGlobal pushes global scalar slot A.
	BLoadGlobal
	// BLoadIndex pops an index and pushes element of array slot A.
	BLoadIndex
	// BLoadIndexLocal pushes array slot A indexed by local slot B
	// (fused BLoadLocal+BLoadIndex).
	BLoadIndexLocal
	// BLoadField pops an object and pushes its field Names[A].
	BLoadField
	// BNew allocates an object with fields FieldSets[A] and pushes it.
	BNew

	// ---- operators (pop operands, push result) ----

	// BNot pops x and pushes !x.
	BNot
	// BNeg pops x and pushes -x.
	BNeg
	// BBinop pops y then x and pushes x <A> y, where A is the ExprOp
	// (never ExLAnd/ExLOr — those lower to the short-circuit ops).
	BBinop
	// BCmpLL pushes local[A] <C> local[B] (fused load/load/compare;
	// C is the comparison ExprOp).
	BCmpLL
	// BCmpLC pushes local[A] <C> Consts[B].
	BCmpLC
	// BCmpLG pushes local[A] <C> global[B].
	BCmpLG
	// BCmpGL pushes global[A] <C> local[B].
	BCmpGL
	// BCmpGC pushes global[A] <C> Consts[B].
	BCmpGC
	// BCmpGG pushes global[A] <C> global[B].
	BCmpGG

	// ---- short-circuit control flow (targets are bytecode pcs) ----

	// BAndCheck pops x; when x is false it pushes false and jumps to
	// bytecode pc A (skipping the right operand and its BBool).
	BAndCheck
	// BOrCheck pops x; when x is true it pushes true and jumps to
	// bytecode pc A.
	BOrCheck
	// BBool pops x and pushes it normalized to a bool value.
	BBool

	// ---- operand words (never dispatched) ----

	// BTargets follows a compare-and-branch terminal in its segment and
	// holds its ir targets: A when the compare holds, B when it does not.
	BTargets

	// ---- terminals (complete the ir instruction) ----

	// The five generic stores below advance the ir-level PC unless C
	// is 1, which marks the end of a call site's bind code.

	// BEndAssignLocal pops v into local slot A.
	BEndAssignLocal
	// BEndAssignGlobal pops v into global scalar slot A.
	BEndAssignGlobal
	// BEndAssignArray pops an index, then v, into array slot A.
	BEndAssignArray
	// BEndAssignArrayLocal pops v into array slot A at local index
	// slot B (fused index load).
	BEndAssignArrayLocal
	// BEndAssignField pops an object, then v, into field Names[A].
	BEndAssignField
	// BEndMoveLL copies local slot B into local slot A (x = y).
	BEndMoveLL
	// BEndMoveLG copies global slot B into local slot A (x = g).
	BEndMoveLG
	// BEndMoveGL copies local slot B into global slot A (g = x).
	BEndMoveGL
	// BEndMoveGG copies global slot B into global slot A (g = h).
	BEndMoveGG
	// BEndConstL stores integer Consts[B] into local slot A.
	BEndConstL
	// BEndConstG stores integer Consts[B] into global slot A.
	BEndConstG
	// BEndIncL stores local[B] + Consts[C] into local slot A
	// (i = i + 1 and every other counter bump).
	BEndIncL
	// BEndIncG stores global[B] + Consts[C] into global slot A.
	BEndIncG
	// BEndArrToL stores array[A][local[C]] into local slot B.
	BEndArrToL
	// BEndLToArr stores local[C] into array[A] at local index B.
	BEndLToArr
	// BEndBranch pops the condition and transfers to ir instruction A
	// (true) or B (false).
	BEndBranch
	// BEndBrLL transfers on local[A] <C> local[B], to the targets of the
	// BTargets word after it: a BCmpLL and a BEndBranch in one op. The
	// next five are the other fused shapes, in BCmpLL's order.
	BEndBrLL
	// BEndBrLC transfers on local[A] <C> Consts[B].
	BEndBrLC
	// BEndBrLG transfers on local[A] <C> global[B].
	BEndBrLG
	// BEndBrGL transfers on global[A] <C> local[B].
	BEndBrGL
	// BEndBrGC transfers on global[A] <C> Consts[B].
	BEndBrGC
	// BEndBrGG transfers on global[A] <C> global[B].
	BEndBrGG
	// BEndJump transfers to ir instruction A.
	BEndJump
	// BEndCall pops B arguments and calls function A. C is the pc
	// of the call site's bind code (the op right after this one), or
	// 0 when the call discards its result.
	BEndCall
	// BEndReturn returns from the current function; A is 1 when a
	// return value is popped.
	BEndReturn
	// BEndAcquire acquires lock A (or blocks without advancing).
	BEndAcquire
	// BEndRelease releases lock A.
	BEndRelease
	// BEndSpawn pops B arguments and spawns a thread running
	// function A.
	BEndSpawn
	// BEndAssert pops the condition and crashes when false (the
	// message comes from the ir instruction).
	BEndAssert
	// BEndOutput pops v and appends it to the run output.
	BEndOutput
)

var bopNames = [...]string{
	"const.int", "const.bool", "const.null",
	"load.l", "load.g", "load.idx", "load.idx.l", "load.field", "new",
	"not", "neg", "binop",
	"cmp.ll", "cmp.lc", "cmp.lg", "cmp.gl", "cmp.gc", "cmp.gg",
	"and.check", "or.check", "bool",
	"targets",
	"end.store.l", "end.store.g", "end.store.arr", "end.store.arr.l",
	"end.store.field",
	"end.move.ll", "end.move.lg", "end.move.gl", "end.move.gg",
	"end.const.l", "end.const.g", "end.inc.l", "end.inc.g",
	"end.arr2l", "end.l2arr",
	"end.branch",
	"end.br.ll", "end.br.lc", "end.br.lg", "end.br.gl", "end.br.gc", "end.br.gg",
	"end.jump", "end.call", "end.return",
	"end.acquire", "end.release", "end.spawn", "end.assert", "end.output",
}

// String returns the opcode mnemonic.
func (o BOp) String() string {
	if int(o) < len(bopNames) {
		return bopNames[o]
	}
	return "bop?"
}

// IsTerminal reports whether the op completes an ir instruction.
func (o BOp) IsTerminal() bool { return o >= BEndAssignLocal }

// Code is one fixed-width bytecode instruction.
type Code struct {
	Op      BOp
	A, B, C int32
}

// BFunc is the bytecode image of one function.
type BFunc struct {
	// Code is the flat instruction array.
	Code []Code
	// Entry maps an ir instruction index to the bytecode pc of its
	// first op. len(Entry) == len(Func.Instrs).
	Entry []int32
	// Src is the per-op source map: Src[pc] is the ir instruction
	// index Code[pc] was lowered from.
	Src []int32
	// MaxStack is the value-stack depth this function's single
	// deepest instruction needs (one interpreter step never leaves
	// values on the stack).
	MaxStack int32
	// Sync classifies each ir instruction as a sync point: Sync[i] is
	// lock+1 when instruction i acquires lock, -(lock+1) when it
	// releases it, and 0 otherwise. len(Sync) == len(Func.Instrs).
	Sync []int32
}

// SrcInstr returns the ir instruction index the op at bytecode pc was
// lowered from, or -1 when pc is out of range.
func (f *BFunc) SrcInstr(pc int) int {
	if pc < 0 || pc >= len(f.Src) {
		return -1
	}
	return int(f.Src[pc])
}

// Bytecode is a program's compiled bytecode image: one BFunc per
// Program.Funcs entry plus the shared pools. Like the Program it hangs
// off, it is immutable once Compile returns and safely shared by any
// number of machines.
type Bytecode struct {
	Funcs []*BFunc
	// Consts is the integer constant pool (interned, deduplicated).
	Consts []int64
	// Names is the string pool for field names.
	Names []string
	// FieldSets holds the field list of each `new` expression as ids
	// into Names, in source order with repeats dropped.
	FieldSets [][]int32
	// MaxStack is the maximum BFunc.MaxStack across functions, so one
	// machine-level stack allocation covers every frame.
	MaxStack int32

	// intern maps, used only during compilation.
	constIdx map[int64]int32
	nameIdx  map[string]int32
	// listed[id] is 1 + the FieldSets index of the last `new` that
	// listed name id, so a repeated name is dropped in one load.
	listed []int32
}

// RefreshBytecode recompiles the program's bytecode image from its
// instructions' source operands. A compiled Program is normally
// immutable and never needs this; it exists for test harnesses that
// patch instructions in place (e.g. injecting crash sites) and must
// keep the bytecode in sync with the operands they edited.
func (p *Program) RefreshBytecode() error {
	bc, err := compileBytecode(p)
	if err != nil {
		return err
	}
	p.BC = bc
	return nil
}

// compileBytecode lowers every function of a linked program into its
// bytecode image. Check has refused a program whose names do not
// resolve, so an error is a compiler invariant violation, not a
// user-program error.
func compileBytecode(p *Program) (*Bytecode, error) {
	bc := &Bytecode{
		constIdx: map[int64]int32{},
		nameIdx:  map[string]int32{},
	}
	for _, fn := range p.Funcs {
		bf, err := bc.lowerFunc(p, fn)
		if err != nil {
			return nil, fmt.Errorf("ir: %s: %w", fn.Name, err)
		}
		bc.Funcs = append(bc.Funcs, bf)
	}
	bc.constIdx, bc.nameIdx, bc.listed = nil, nil, nil
	return bc, nil
}

func (bc *Bytecode) constOf(v int64) int32 {
	if i, ok := bc.constIdx[v]; ok {
		return i
	}
	i := int32(len(bc.Consts))
	bc.Consts = append(bc.Consts, v)
	bc.constIdx[v] = i
	return i
}

func (bc *Bytecode) nameOf(s string) int32 {
	if i, ok := bc.nameIdx[s]; ok {
		return i
	}
	i := int32(len(bc.Names))
	bc.Names = append(bc.Names, s)
	bc.nameIdx[s] = i
	return i
}

// NameID returns the id of field name s in the Names pool, or -1. It
// scans the pool, which lang.MaxFieldNames bounds, so it serves the
// edges that translate a name once, not the dispatch loop.
func (bc *Bytecode) NameID(s string) int32 {
	for i, n := range bc.Names {
		if n == s {
			return int32(i)
		}
	}
	return -1
}

func (bc *Bytecode) fieldSetOf(fields []string) int32 {
	set := int32(len(bc.FieldSets))
	ids := make([]int32, 0, len(fields))
	for _, f := range fields {
		id := bc.nameOf(f)
		for int(id) >= len(bc.listed) {
			bc.listed = append(bc.listed, 0)
		}
		if bc.listed[id] != set+1 {
			bc.listed[id] = set + 1
			ids = append(ids, id)
		}
	}
	bc.FieldSets = append(bc.FieldSets, ids)
	return set
}

// bfcomp lowers one function. err holds the first operand the
// lowering could not resolve: lowering goes on past it, and lowerFunc
// reports it once the instruction is done.
type bfcomp struct {
	bc   *Bytecode
	prog *Program
	fn   *Func
	out  *BFunc
	cur  int32 // ir instruction index being lowered (for the source map)
	sp   int32 // current stack depth within the instruction
	peak int32 // peak depth within the instruction
	err  error
}

func (c *bfcomp) emit(op BOp, a, b, d int32) int32 {
	c.out.Code = append(c.out.Code, Code{Op: op, A: a, B: b, C: d})
	c.out.Src = append(c.out.Src, c.cur)
	return int32(len(c.out.Code) - 1)
}

func (c *bfcomp) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// push/pop track the value-stack effect of emitted ops so MaxStack is
// exact.
func (c *bfcomp) push(n int32) {
	c.sp += n
	if c.sp > c.peak {
		c.peak = c.sp
	}
}

func (c *bfcomp) pop(n int32) { c.sp -= n }

func (bc *Bytecode) lowerFunc(p *Program, fn *Func) (*BFunc, error) {
	c := &bfcomp{bc: bc, prog: p, fn: fn, out: &BFunc{}}
	for i := range fn.Instrs {
		in := &fn.Instrs[i]
		c.cur = int32(i)
		c.out.Entry = append(c.out.Entry, int32(len(c.out.Code)))
		c.sp, c.peak = 0, 0
		c.lowerInstr(in)
		if c.err != nil {
			return nil, fmt.Errorf("instr %d (line %d): %w", i, in.Line, c.err)
		}
		var sync int32
		switch op := c.out.Code[c.out.Entry[i]]; op.Op {
		case BEndAcquire:
			sync = op.A + 1
		case BEndRelease:
			sync = -(op.A + 1)
		}
		c.out.Sync = append(c.out.Sync, sync)
		if c.peak > c.out.MaxStack {
			c.out.MaxStack = c.peak
		}
	}
	if c.out.MaxStack > bc.MaxStack {
		bc.MaxStack = c.out.MaxStack
	}
	return c.out, nil
}

// operandClass classifies an expression as a directly addressable
// operand for superinstruction selection: a local slot, a global slot,
// or an integer constant.
type operandClass uint8

const (
	opNone operandClass = iota
	opLocal
	opGlobal
	opConst
)

// scalar resolves a variable name as the language scopes it: a local
// of the function, else a global scalar. It is opNone when the name is
// neither.
func (c *bfcomp) scalar(name string) (operandClass, int32) {
	if slot, ok := c.fn.localIndex[name]; ok {
		return opLocal, int32(slot)
	}
	if slot := c.prog.GlobalSlot(name); slot >= 0 {
		return opGlobal, int32(slot)
	}
	return opNone, 0
}

// array resolves a global array name to its slot.
func (c *bfcomp) array(name string) int32 {
	slot := c.prog.ArraySlot(name)
	if slot < 0 {
		c.fail("unresolved array %q", name)
	}
	return int32(slot)
}

// operand classifies e: a variable's slot, or an integer literal's
// value.
func (c *bfcomp) operand(e lang.Expr) (operandClass, int64) {
	switch e := e.(type) {
	case *lang.VarRef:
		class, slot := c.scalar(e.Name)
		return class, int64(slot)
	case *lang.IntLit:
		return opConst, e.Value
	}
	return opNone, 0
}

func isCmp(op ExprOp) bool { return op >= ExEq && op <= ExGe }

func (c *bfcomp) lowerInstr(in *Instr) {
	switch in.Op {
	case OpAssign:
		c.lowerAssign(in.SrcLHS, in.SrcRHS)

	case OpBranch:
		if cmp, ok := c.cmpShape(in.SrcCond); ok {
			c.emit(cmp.Op-BCmpLL+BEndBrLL, cmp.A, cmp.B, cmp.C)
			c.emit(BTargets, int32(in.True), int32(in.False), 0)
			return
		}
		c.cond(in.SrcCond)
		c.pop(1)
		c.emit(BEndBranch, int32(in.True), int32(in.False), 0)

	case OpJump:
		c.emit(BEndJump, int32(in.True), 0, 0)

	case OpCall, OpSpawn:
		for _, a := range in.SrcArgs {
			c.expr(a)
		}
		n := int32(len(in.SrcArgs))
		c.pop(n)
		if in.Op == OpSpawn {
			c.emit(BEndSpawn, in.Callee, n, 0)
			return
		}
		call := c.emit(BEndCall, in.Callee, n, 0)
		if in.SrcLHS != nil {
			// The bind code follows the call in its segment: the
			// return step runs it on the caller's frame with the
			// result on the stack.
			c.out.Code[call].C = call + 1
			c.push(1)
			c.store(in.SrcLHS, 1)
		}

	case OpReturn:
		hasVal := int32(0)
		if in.SrcRHS != nil {
			c.expr(in.SrcRHS)
			c.pop(1)
			hasVal = 1
		}
		c.emit(BEndReturn, hasVal, 0, 0)

	case OpAcquire:
		c.emit(BEndAcquire, in.Lock, 0, 0)

	case OpRelease:
		c.emit(BEndRelease, in.Lock, 0, 0)

	case OpAssert:
		c.cond(in.SrcCond)
		c.pop(1)
		c.emit(BEndAssert, 0, 0, 0)

	case OpOutput:
		c.expr(in.SrcRHS)
		c.pop(1)
		c.emit(BEndOutput, 0, 0, 0)

	default:
		c.fail("unknown op %v", in.Op)
	}
}

// lowerAssign selects a fused store when the statement matches one of
// the hot shapes, falling back to generic expr + terminal store. Every
// fused form preserves the source evaluation (and hook-event) order:
// RHS reads first, then the index/object reads of the target, then the
// write.
func (c *bfcomp) lowerAssign(lv lang.LValue, rhs lang.Expr) {
	switch lv := lv.(type) {
	case *lang.VarLV:
		if class, dst := c.scalar(lv.Name); class != opNone && c.fusedScalarStore(dst, rhs, class == opLocal) {
			return
		}
	case *lang.IndexLV:
		idxClass, idxSlot := c.operand(lv.Index)
		rhsClass, rhsSlot := c.operand(rhs)
		if idxClass == opLocal && rhsClass == opLocal {
			// arr[i] = v with both locals: single op, hook order
			// read(v), read(i), write(arr[i]).
			c.emit(BEndLToArr, c.array(lv.Name), int32(idxSlot), int32(rhsSlot))
			return
		}
	}
	c.expr(rhs)
	c.store(lv, 0)
}

// store emits the generic store of the value on top of the stack into
// lv: the target's index or object is evaluated, then a store terminal
// writes. keep is the terminal's C operand: 1 in a call site's bind
// code, where the call already advanced the caller's PC.
func (c *bfcomp) store(lv lang.LValue, keep int32) {
	switch lv := lv.(type) {
	case *lang.VarLV:
		c.pop(1)
		switch class, slot := c.scalar(lv.Name); class {
		case opLocal:
			c.emit(BEndAssignLocal, slot, 0, keep)
		case opGlobal:
			c.emit(BEndAssignGlobal, slot, 0, keep)
		default:
			c.fail("unresolved variable %q in assignment", lv.Name)
		}
	case *lang.IndexLV:
		slot := c.array(lv.Name)
		if ic, is := c.operand(lv.Index); ic == opLocal {
			c.pop(1)
			c.emit(BEndAssignArrayLocal, slot, int32(is), keep)
			return
		}
		c.expr(lv.Index)
		c.pop(2)
		c.emit(BEndAssignArray, slot, 0, keep)
	case *lang.FieldLV:
		c.expr(lv.Obj)
		c.pop(2)
		c.emit(BEndAssignField, c.bc.nameOf(lv.Field), 0, keep)
	default:
		c.fail("cannot compile lvalue %T", lv)
	}
}

// fusedScalarStore emits a single-op store into a local (toLocal) or
// global scalar slot when the RHS matches a fused shape. Returns false
// when no shape applies.
func (c *bfcomp) fusedScalarStore(dst int32, rhs lang.Expr, toLocal bool) bool {
	switch rhs := rhs.(type) {
	case *lang.VarRef:
		class, src := c.scalar(rhs.Name)
		switch {
		case class == opLocal && toLocal:
			c.emit(BEndMoveLL, dst, src, 0)
		case class == opLocal:
			c.emit(BEndMoveGL, dst, src, 0)
		case class == opGlobal && toLocal:
			c.emit(BEndMoveLG, dst, src, 0)
		case class == opGlobal:
			c.emit(BEndMoveGG, dst, src, 0)
		default:
			return false
		}
		return true
	case *lang.IntLit:
		k := c.bc.constOf(rhs.Value)
		if toLocal {
			c.emit(BEndConstL, dst, k, 0)
		} else {
			c.emit(BEndConstG, dst, k, 0)
		}
		return true
	case *lang.BinaryExpr:
		// x = y ± k: the counter-bump shape (for-loop increments,
		// instrumentation counters, completed-ops bookkeeping).
		if rhs.Op != "+" && rhs.Op != "-" {
			return false
		}
		xc, xs := c.operand(rhs.X)
		yc, yk := c.operand(rhs.Y)
		if yc != opConst {
			return false
		}
		delta := yk
		if rhs.Op == "-" {
			delta = -yk
		}
		k := c.bc.constOf(delta)
		if toLocal && xc == opLocal {
			c.emit(BEndIncL, dst, int32(xs), k)
			return true
		}
		if !toLocal && xc == opGlobal {
			c.emit(BEndIncG, dst, int32(xs), k)
			return true
		}
		return false
	case *lang.IndexExpr:
		// x = arr[i] with a local index.
		if toLocal {
			if ic, is := c.operand(rhs.Index); ic == opLocal {
				c.emit(BEndArrToL, c.array(rhs.Name), dst, int32(is))
				return true
			}
		}
		return false
	}
	return false
}

// cond emits code leaving a branch/assert condition on the stack,
// fusing two-operand comparisons over directly addressable operands.
func (c *bfcomp) cond(e lang.Expr) {
	if !c.fusedCmp(e) {
		c.expr(e)
	}
}

// fusedCmp emits a single fused-compare op when e is one of the six
// fused compare shapes (see cmpShape). Returns false when it is not.
func (c *bfcomp) fusedCmp(e lang.Expr) bool {
	cmp, ok := c.cmpShape(e)
	if !ok {
		return false
	}
	c.push(1)
	c.emit(cmp.Op, cmp.A, cmp.B, cmp.C)
	return true
}

// cmpShape matches e against the fused compare shapes, a two-operand
// comparison over local/global operands with an optional constant on
// the right, and returns the shape's BCmp* op with its operands in A
// and B and the comparison's ExprOp in C.
func (c *bfcomp) cmpShape(e lang.Expr) (Code, bool) {
	be, ok := e.(*lang.BinaryExpr)
	if !ok {
		return Code{}, false
	}
	op, ok := binOps[be.Op]
	if !ok || !isCmp(op) {
		return Code{}, false
	}
	xc, xs := c.operand(be.X)
	yc, ys := c.operand(be.Y)
	cmp := Code{A: int32(xs), B: int32(ys), C: int32(op)}
	switch {
	case xc == opLocal && yc == opLocal:
		cmp.Op = BCmpLL
	case xc == opLocal && yc == opConst:
		cmp.Op, cmp.B = BCmpLC, c.bc.constOf(ys)
	case xc == opLocal && yc == opGlobal:
		cmp.Op = BCmpLG
	case xc == opGlobal && yc == opLocal:
		cmp.Op = BCmpGL
	case xc == opGlobal && yc == opConst:
		cmp.Op, cmp.B = BCmpGC, c.bc.constOf(ys)
	case xc == opGlobal && yc == opGlobal:
		cmp.Op = BCmpGG
	default:
		return Code{}, false
	}
	return cmp, true
}

// expr emits code that evaluates e and leaves one value on the stack,
// reporting reads in source evaluation order.
func (c *bfcomp) expr(e lang.Expr) {
	switch e := e.(type) {
	case *lang.IntLit:
		c.push(1)
		c.emit(BConstInt, c.bc.constOf(e.Value), 0, 0)

	case *lang.BoolLit:
		v := int32(0)
		if e.Value {
			v = 1
		}
		c.push(1)
		c.emit(BConstBool, v, 0, 0)

	case *lang.NullLit:
		c.push(1)
		c.emit(BConstNull, 0, 0, 0)

	case *lang.VarRef:
		c.push(1)
		switch class, slot := c.scalar(e.Name); class {
		case opLocal:
			c.emit(BLoadLocal, slot, 0, 0)
		case opGlobal:
			c.emit(BLoadGlobal, slot, 0, 0)
		default:
			c.fail("unresolved variable %q", e.Name)
		}

	case *lang.IndexExpr:
		slot := c.array(e.Name)
		if ic, is := c.operand(e.Index); ic == opLocal {
			c.push(1)
			c.emit(BLoadIndexLocal, slot, int32(is), 0)
			return
		}
		c.expr(e.Index)
		// pop index, push element: net zero.
		c.emit(BLoadIndex, slot, 0, 0)

	case *lang.FieldExpr:
		c.expr(e.Obj)
		c.emit(BLoadField, c.bc.nameOf(e.Field), 0, 0)

	case *lang.NewExpr:
		c.push(1)
		c.emit(BNew, c.bc.fieldSetOf(e.Fields), 0, 0)

	case *lang.UnaryExpr:
		c.expr(e.X)
		switch e.Op {
		case "!":
			c.emit(BNot, 0, 0, 0)
		case "-":
			c.emit(BNeg, 0, 0, 0)
		default:
			c.fail("unknown unary op %q", e.Op)
		}

	case *lang.BinaryExpr:
		op, ok := binOps[e.Op]
		switch {
		case !ok:
			c.fail("unknown binary op %q", e.Op)
		case op == ExLAnd || op == ExLOr:
			check := BAndCheck
			if op == ExLOr {
				check = BOrCheck
			}
			c.expr(e.X)
			c.pop(1)
			j := c.emit(check, 0, 0, 0)
			c.expr(e.Y)
			c.pop(1)
			c.emit(BBool, 0, 0, 0)
			c.push(1)
			c.out.Code[j].A = int32(len(c.out.Code))
		default:
			// Reuse the fused compare shapes inside larger
			// expressions too.
			if c.fusedCmp(e) {
				return
			}
			c.expr(e.X)
			c.expr(e.Y)
			c.pop(1) // two operands fold to one result
			c.emit(BBinop, int32(op), 0, 0)
		}

	default:
		c.fail("cannot compile expression %T", e)
	}
}
