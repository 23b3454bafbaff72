package ir

// This file is the bytecode backend: a Compile-stage pass that lowers
// the resolved Expr/LValue trees of each instruction into a flat
// []Code array, the only form the interpreter executes (interp's
// bytecode.go). The trees remain on the Instr for the static analyses
// and diagnostics; the bytecode is their executable encoding.
//
// Design:
//
//   - Fixed-width ops: one Code is an opcode plus three int32 operands
//     (slots, constant-pool indices, resolved jump targets). The
//     dispatch loop is a single switch over a pc-indexed array — no
//     pointer chasing through Expr nodes, no per-node type switches.
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
// (resolved) instruction trees. A compiled Program is normally
// immutable and never needs this; it exists for test harnesses that
// patch instructions in place (e.g. injecting crash sites) and must
// keep the bytecode in sync with the trees they edited.
func (p *Program) RefreshBytecode() { p.BC = compileBytecode(p) }

// compileBytecode lowers every function of an already-resolved program
// into its bytecode image. Called by Compile after resolveFunc; any
// error is a compiler invariant violation, not a user-program error.
func compileBytecode(p *Program) *Bytecode {
	bc := &Bytecode{
		constIdx: map[int64]int32{},
		nameIdx:  map[string]int32{},
	}
	for _, fn := range p.Funcs {
		bc.Funcs = append(bc.Funcs, bc.lowerFunc(fn))
	}
	bc.constIdx, bc.nameIdx, bc.listed = nil, nil, nil
	return bc
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

// bfcomp lowers one function.
type bfcomp struct {
	bc   *Bytecode
	out  *BFunc
	cur  int32 // ir instruction index being lowered (for the source map)
	sp   int32 // current stack depth within the instruction
	peak int32 // peak depth within the instruction
}

func (c *bfcomp) emit(op BOp, a, b, d int32) int32 {
	c.out.Code = append(c.out.Code, Code{Op: op, A: a, B: b, C: d})
	c.out.Src = append(c.out.Src, c.cur)
	return int32(len(c.out.Code) - 1)
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

func (bc *Bytecode) lowerFunc(fn *Func) *BFunc {
	c := &bfcomp{bc: bc, out: &BFunc{}}
	for i := range fn.Instrs {
		c.cur = int32(i)
		c.out.Entry = append(c.out.Entry, int32(len(c.out.Code)))
		c.sp, c.peak = 0, 0
		c.lowerInstr(&fn.Instrs[i])
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
	return c.out
}

// simpleSlot classifies an expression as a directly addressable
// operand for superinstruction selection: a local slot, a global slot,
// or an integer constant.
type operandClass uint8

const (
	opNone operandClass = iota
	opLocal
	opGlobal
	opConst
)

func classify(e *Expr) (operandClass, int64) {
	if e == nil {
		return opNone, 0
	}
	switch e.Kind {
	case ELocal:
		return opLocal, int64(e.Slot)
	case EGlobal:
		return opGlobal, int64(e.Slot)
	case EInt:
		return opConst, e.Num
	}
	return opNone, 0
}

func isCmp(op ExprOp) bool { return op >= ExEq && op <= ExGe }

func (c *bfcomp) lowerInstr(in *Instr) {
	switch in.Op {
	case OpAssign:
		c.lowerAssign(in)

	case OpBranch:
		if op, a, b, ok := c.cmpShape(in.Cond); ok {
			c.emit(op-BCmpLL+BEndBrLL, a, b, int32(in.Cond.Op))
			c.emit(BTargets, int32(in.True), int32(in.False), 0)
			return
		}
		c.cond(in.Cond)
		c.pop(1)
		c.emit(BEndBranch, int32(in.True), int32(in.False), 0)

	case OpJump:
		c.emit(BEndJump, int32(in.True), 0, 0)

	case OpCall, OpSpawn:
		for _, a := range in.Args {
			c.expr(a)
		}
		c.pop(int32(len(in.Args)))
		if in.Op == OpSpawn {
			c.emit(BEndSpawn, in.Callee, int32(len(in.Args)), 0)
			return
		}
		call := c.emit(BEndCall, in.Callee, int32(len(in.Args)), 0)
		if in.LHS != nil {
			// The bind code follows the call in its segment: the
			// return step runs it on the caller's frame with the
			// result on the stack.
			c.out.Code[call].C = call + 1
			c.push(1)
			c.store(in.LHS, 1)
		}

	case OpReturn:
		hasVal := int32(0)
		if in.RHS != nil {
			c.expr(in.RHS)
			c.pop(1)
			hasVal = 1
		}
		c.emit(BEndReturn, hasVal, 0, 0)

	case OpAcquire:
		c.emit(BEndAcquire, in.Lock, 0, 0)

	case OpRelease:
		c.emit(BEndRelease, in.Lock, 0, 0)

	case OpAssert:
		c.cond(in.Cond)
		c.pop(1)
		c.emit(BEndAssert, 0, 0, 0)

	case OpOutput:
		c.expr(in.RHS)
		c.pop(1)
		c.emit(BEndOutput, 0, 0, 0)
	}
}

// lowerAssign selects a fused store when the statement matches one of
// the hot shapes, falling back to generic expr + terminal store. Every
// fused form preserves the source evaluation (and hook-event) order:
// RHS reads first, then the index/object reads of the target, then the
// write.
func (c *bfcomp) lowerAssign(in *Instr) {
	lv, rhs := in.LHS, in.RHS
	switch lv.Kind {
	case LVLocal, LVGlobal:
		if c.fusedScalarStore(lv.Slot, rhs, lv.Kind == LVLocal) {
			return
		}
	case LVArray:
		idxClass, idxSlot := classify(lv.Index)
		rhsClass, rhsSlot := classify(rhs)
		if idxClass == opLocal && rhsClass == opLocal {
			// arr[i] = v with both locals: single op, hook order
			// read(v), read(i), write(arr[i]).
			c.emit(BEndLToArr, lv.Slot, int32(idxSlot), int32(rhsSlot))
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
func (c *bfcomp) store(lv *LValue, keep int32) {
	switch lv.Kind {
	case LVLocal:
		c.pop(1)
		c.emit(BEndAssignLocal, lv.Slot, 0, keep)
	case LVGlobal:
		c.pop(1)
		c.emit(BEndAssignGlobal, lv.Slot, 0, keep)
	case LVArray:
		if ic, is := classify(lv.Index); ic == opLocal {
			c.pop(1)
			c.emit(BEndAssignArrayLocal, lv.Slot, int32(is), keep)
			return
		}
		c.expr(lv.Index)
		c.pop(2)
		c.emit(BEndAssignArray, lv.Slot, 0, keep)
	case LVField:
		c.expr(lv.Obj)
		c.pop(2)
		c.emit(BEndAssignField, c.bc.nameOf(lv.Name), 0, keep)
	}
}

// fusedScalarStore emits a single-op store into a local (toLocal) or
// global scalar slot when the RHS matches a fused shape. Returns false
// when no shape applies.
func (c *bfcomp) fusedScalarStore(dst int32, rhs *Expr, toLocal bool) bool {
	switch rhs.Kind {
	case ELocal:
		if toLocal {
			c.emit(BEndMoveLL, dst, rhs.Slot, 0)
		} else {
			c.emit(BEndMoveGL, dst, rhs.Slot, 0)
		}
		return true
	case EGlobal:
		if toLocal {
			c.emit(BEndMoveLG, dst, rhs.Slot, 0)
		} else {
			c.emit(BEndMoveGG, dst, rhs.Slot, 0)
		}
		return true
	case EInt:
		k := c.bc.constOf(rhs.Num)
		if toLocal {
			c.emit(BEndConstL, dst, k, 0)
		} else {
			c.emit(BEndConstG, dst, k, 0)
		}
		return true
	case EBinary:
		// x = y ± k: the counter-bump shape (for-loop increments,
		// instrumentation counters, completed-ops bookkeeping).
		if rhs.Op != ExAdd && rhs.Op != ExSub {
			return false
		}
		xc, xs := classify(rhs.X)
		yc, yk := classify(rhs.Y)
		if yc != opConst {
			return false
		}
		delta := yk
		if rhs.Op == ExSub {
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
	case EIndex:
		// x = arr[i] with a local index.
		if toLocal {
			if ic, is := classify(rhs.X); ic == opLocal {
				c.emit(BEndArrToL, rhs.Slot, dst, int32(is))
				return true
			}
		}
		return false
	}
	return false
}

// cond emits code leaving a branch/assert condition on the stack,
// fusing two-operand comparisons over directly addressable operands.
func (c *bfcomp) cond(e *Expr) {
	if !c.fusedCmp(e) {
		c.expr(e)
	}
}

// fusedCmp emits a single fused-compare op when e is one of the six
// fused compare shapes (see cmpShape). Returns false when it is not.
func (c *bfcomp) fusedCmp(e *Expr) bool {
	op, a, b, ok := c.cmpShape(e)
	if !ok {
		return false
	}
	c.push(1)
	c.emit(op, a, b, int32(e.Op))
	return true
}

// cmpShape matches e against the fused compare shapes, a two-operand
// comparison over local/global operands with an optional constant on
// the right, and returns the shape's BCmp* op and its A and B operands.
func (c *bfcomp) cmpShape(e *Expr) (op BOp, a, b int32, ok bool) {
	if e.Kind != EBinary || !isCmp(e.Op) {
		return 0, 0, 0, false
	}
	xc, xs := classify(e.X)
	yc, ys := classify(e.Y)
	a, b = int32(xs), int32(ys)
	switch {
	case xc == opLocal && yc == opLocal:
		op = BCmpLL
	case xc == opLocal && yc == opConst:
		op, b = BCmpLC, c.bc.constOf(ys)
	case xc == opLocal && yc == opGlobal:
		op = BCmpLG
	case xc == opGlobal && yc == opLocal:
		op = BCmpGL
	case xc == opGlobal && yc == opConst:
		op, b = BCmpGC, c.bc.constOf(ys)
	case xc == opGlobal && yc == opGlobal:
		op = BCmpGG
	default:
		return 0, 0, 0, false
	}
	return op, a, b, true
}

// expr emits code that evaluates e and leaves one value on the stack,
// reporting reads in source evaluation order.
func (c *bfcomp) expr(e *Expr) {
	switch e.Kind {
	case EInt:
		c.push(1)
		c.emit(BConstInt, c.bc.constOf(e.Num), 0, 0)

	case EBool:
		c.push(1)
		c.emit(BConstBool, int32(e.Num), 0, 0)

	case ENull:
		c.push(1)
		c.emit(BConstNull, 0, 0, 0)

	case ELocal:
		c.push(1)
		c.emit(BLoadLocal, e.Slot, 0, 0)

	case EGlobal:
		c.push(1)
		c.emit(BLoadGlobal, e.Slot, 0, 0)

	case EIndex:
		if ic, is := classify(e.X); ic == opLocal {
			c.push(1)
			c.emit(BLoadIndexLocal, e.Slot, int32(is), 0)
			return
		}
		c.expr(e.X)
		// pop index, push element: net zero.
		c.emit(BLoadIndex, e.Slot, 0, 0)

	case EField:
		c.expr(e.X)
		c.emit(BLoadField, c.bc.nameOf(e.Name), 0, 0)

	case ENew:
		c.push(1)
		c.emit(BNew, c.bc.fieldSetOf(e.Fields), 0, 0)

	case EUnary:
		c.expr(e.X)
		if e.Op == ExNot {
			c.emit(BNot, 0, 0, 0)
		} else {
			c.emit(BNeg, 0, 0, 0)
		}

	case EBinary:
		switch e.Op {
		case ExLAnd:
			c.expr(e.X)
			c.pop(1)
			j := c.emit(BAndCheck, 0, 0, 0)
			c.expr(e.Y)
			c.pop(1)
			c.emit(BBool, 0, 0, 0)
			c.push(1)
			c.out.Code[j].A = int32(len(c.out.Code))
		case ExLOr:
			c.expr(e.X)
			c.pop(1)
			j := c.emit(BOrCheck, 0, 0, 0)
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
			c.emit(BBinop, int32(e.Op), 0, 0)
		}
	}
}
