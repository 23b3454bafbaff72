// Package ir defines the flat instruction representation that the
// interpreter executes and that every static analysis (control-flow
// graphs, post-dominators, control dependence, execution indexing)
// operates on.
//
// Each function body compiles to a linear slice of instructions with
// explicit branch targets, mirroring the three-address form a C compiler
// would hand to its analysis passes. One instruction is one atomic
// interpreter step; scheduling decisions happen between instructions.
package ir

import (
	"fmt"

	"heisendump/internal/lang"
)

// Op enumerates instruction opcodes. The IR is deliberately a flat
// "quadruple" style: a single Instr struct whose meaningful fields
// depend on Op. This keeps the interpreter dispatch loop and the
// analyses free of type switches over a node hierarchy.
type Op int

const (
	// OpAssign stores RHS into LHS.
	OpAssign Op = iota
	// OpBranch evaluates Cond and transfers to True or False.
	OpBranch
	// OpJump transfers unconditionally to True.
	OpJump
	// OpCall invokes Callee with Args, binding the return value to LHS
	// when non-nil.
	OpCall
	// OpReturn leaves the current function with optional RHS value.
	OpReturn
	// OpAcquire blocks until Lock is free, then holds it.
	OpAcquire
	// OpRelease releases Lock.
	OpRelease
	// OpSpawn starts a new thread running Callee with Args.
	OpSpawn
	// OpAssert crashes the run when Cond is false.
	OpAssert
	// OpOutput appends RHS to the run output.
	OpOutput
)

var opNames = [...]string{"assign", "branch", "jump", "call", "return",
	"acquire", "release", "spawn", "assert", "output"}

// String returns the lower-case opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is a single instruction. Field use by opcode:
//
//	OpAssign : SrcLHS, SrcRHS; Synth marks compiler-inserted loop-counter code
//	OpBranch : SrcCond, True, False, PredGroup; loop heads set LoopID >= 0
//	OpJump   : True
//	OpCall   : Callee, SrcArgs, SrcLHS (optional result)
//	OpReturn : SrcRHS (optional)
//	OpAcquire/OpRelease: Lock
//	OpSpawn  : Callee, SrcArgs
//	OpAssert : SrcCond, Msg
//	OpOutput : SrcRHS
//
// The Src* operands are the source AST the instruction was lowered
// from, its only operand form: the bytecode backend (bytecode.go)
// lowers them to the code the interpreter executes, resolving each
// name to its slot as it goes, the static analyses walk them, and the
// reference (name-map) interpreter in the interp tests executes them.
// Callee is a function index and Lock a lock id, both resolved by
// Compile.
type Instr struct {
	Op   Op
	Line int

	Callee int32 // index into Program.Funcs
	Lock   int32 // index into Program.Locks

	True, False int

	// Source operands, as lowered from the AST.
	SrcLHS     lang.LValue
	SrcRHS     lang.Expr
	SrcCond    lang.Expr
	SrcArgs    []lang.Expr
	CalleeName string
	LockName   string
	Msg        string

	// PredGroup groups the branch instructions lowered from one source
	// conditional (short-circuit && / ||). Statements control dependent
	// on several branches of the same group have dependences that are
	// "aggregatable to one" in the paper's Table 1 taxonomy. -1 for
	// non-branches.
	PredGroup int

	// LoopID is the per-function loop identifier when this branch is a
	// loop head; -1 otherwise.
	LoopID int

	// Synth marks instrumentation-inserted instructions (loop-counter
	// resets and increments). They execute like ordinary assignments and
	// account for the production-run overhead of Fig. 10.
	Synth bool
}

// IsLoopHead reports whether the instruction is a loop-head branch.
func (in *Instr) IsLoopHead() bool { return in.Op == OpBranch && in.LoopID >= 0 }

// Loop describes one loop in a function.
type Loop struct {
	// ID is the per-function loop identifier.
	ID int
	// HeadPC is the index of the loop-head branch instruction.
	HeadPC int
	// Line is the source line of the loop statement.
	Line int
	// Counted is true for `for` loops, whose loop variable doubles as an
	// intrinsic counter; false for `while` loops.
	Counted bool
	// CounterVar is the local variable holding the running iteration
	// count: the loop variable for counted loops, the instrumentation
	// counter for instrumented while loops, or "" when the loop is an
	// uninstrumented while loop (its count cannot be recovered from a
	// dump).
	CounterVar string
	// FromVar is the local holding the counted loop's initial value, so
	// the iteration number can be recovered as CounterVar-FromVar+1.
	// Empty for while loops.
	FromVar string
}

// GroupInfo records where the branch chain of one source conditional
// transfers control once its outcome is decided. Taking an edge into
// Then decides the complex predicate true; into Else decides it false;
// an edge to another branch of the same group leaves it undecided.
type GroupInfo struct {
	Then int
	Else int
	// Line is the source line of the conditional.
	Line int
}

// Func is a compiled function.
type Func struct {
	Name   string
	Params []string
	// Locals lists every local name (params first, then declared locals
	// and compiler temporaries), in a deterministic order. The position
	// of a name is its frame slot: the interpreter stores frame locals
	// in a []Value indexed by it, and this table maps slots back to
	// names for traces, dumps and crash reports.
	Locals []string
	Instrs []Instr
	Loops  []*Loop
	// Groups maps a PredGroup id to its decided-outcome targets.
	Groups map[int]GroupInfo

	localIndex map[string]int
}

// LocalSlot returns the frame slot of the named local, or -1.
func (f *Func) LocalSlot(name string) int {
	if i, ok := f.localIndex[name]; ok {
		return i
	}
	return -1
}

// LoopByHead returns the loop whose head branch is at pc, or nil.
func (f *Func) LoopByHead(pc int) *Loop {
	for _, l := range f.Loops {
		if l.HeadPC == pc {
			return l
		}
	}
	return nil
}

// PC addresses one instruction in a program: function index F,
// instruction index I.
type PC struct {
	F int
	I int
}

// String formats the PC as "func:index"; the Program-level FormatPC adds
// the function name.
func (pc PC) String() string { return fmt.Sprintf("%d:%d", pc.F, pc.I) }

// Program is a compiled program. It is immutable once Compile
// returns: the interpreter and every analysis only read it, so a
// single compiled program is safely shared by any number of machines
// running concurrently (the parallel schedule search relies on this).
type Program struct {
	Name    string
	Globals []*lang.VarDecl
	Locks   []string
	Funcs   []*Func
	// Main indexes the entry function main in Funcs, where the main
	// thread starts. Compile resolves it once, so setting up a run
	// looks no name up.
	Main int

	// Dense storage tables: Compile interns every global scalar, global
	// array and lock into these slot-indexed name tables. The
	// interpreter's machine state is laid out by slot ([]Value for
	// scalars, [][]int64 for arrays, []int32 holders for locks — see
	// interp), and the tables map slots back to source names so every
	// externally visible artifact (traces, dumps, crash reports) still
	// speaks names.
	//
	// ScalarNames[i]/ScalarDecls[i] describe scalar-global slot i;
	// ArrayNames[i]/ArrayDecls[i] describe array slot i. Lock id i is
	// named Locks[i]. All tables are in declaration order.
	ScalarNames []string
	ScalarDecls []*lang.VarDecl
	ArrayNames  []string
	ArrayDecls  []*lang.VarDecl

	// BC is the bytecode image of the program: every instruction's
	// source operands lowered to flat fixed-width code over resolved
	// slots (see bytecode.go). The interpreter executes it; the
	// analyses read the instructions.
	BC *Bytecode

	funcIndex   map[string]int
	globalIndex map[string]int
	arrayIndex  map[string]int
	lockIndex   map[string]int

	// Instrumented records whether while loops carry synthetic counters.
	Instrumented bool
}

// FuncIndex returns the index of the named function, or -1.
func (p *Program) FuncIndex(name string) int {
	if i, ok := p.funcIndex[name]; ok {
		return i
	}
	return -1
}

// GlobalSlot returns the storage slot of the named global scalar, or
// -1 (the name is an array, a lock, or undeclared).
func (p *Program) GlobalSlot(name string) int {
	if i, ok := p.globalIndex[name]; ok {
		return i
	}
	return -1
}

// ArraySlot returns the storage slot of the named global array, or -1.
func (p *Program) ArraySlot(name string) int {
	if i, ok := p.arrayIndex[name]; ok {
		return i
	}
	return -1
}

// LockID returns the id of the named lock, or -1. Lock id i is named
// Locks[i].
func (p *Program) LockID(name string) int {
	if i, ok := p.lockIndex[name]; ok {
		return i
	}
	return -1
}

// InstrAt returns the instruction at pc.
func (p *Program) InstrAt(pc PC) *Instr { return &p.Funcs[pc.F].Instrs[pc.I] }

// FormatPC renders a PC with its function name and source line, e.g.
// "T1@4 (line 12)".
func (p *Program) FormatPC(pc PC) string {
	f := p.Funcs[pc.F]
	if pc.I >= len(f.Instrs) {
		return fmt.Sprintf("%s@exit", f.Name)
	}
	return fmt.Sprintf("%s@%d (line %d)", f.Name, pc.I, f.Instrs[pc.I].Line)
}
