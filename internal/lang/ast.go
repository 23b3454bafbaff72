// Package lang defines the abstract syntax of the mini concurrent
// language used as the subject-program substrate for the reproduction
// pipeline. Programs may be built directly from AST nodes or parsed from
// the C-like surface syntax understood by Parse.
//
// The language is deliberately small but covers everything the paper's
// technique consumes: shared global variables, heap objects and arrays,
// locks, thread spawning, loops (counted `for` and uncounted `while`),
// short-circuit conditionals (which yield aggregatable control
// dependences) and goto (which yields non-aggregatable control
// dependences).
package lang

import "fmt"

// Type is the static type of a variable or expression.
type Type int

const (
	// TypeInt is a 64-bit signed integer.
	TypeInt Type = iota
	// TypeBool is a boolean.
	TypeBool
	// TypePtr is a pointer to a heap object.
	TypePtr
)

// String returns the surface-syntax name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeBool:
		return "bool"
	case TypePtr:
		return "ptr"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Program is a complete subject program: globals, locks and functions.
// The function named "main" is the initial thread's entry point.
type Program struct {
	// Globals are the shared variables, in declaration order.
	Globals []*VarDecl
	// Locks are the declared lock names, in declaration order.
	Locks []string
	// LockLines holds each lock declaration's 1-based source line, by
	// Locks index; hand-built programs may leave it short.
	LockLines []int
	// Funcs are the function definitions, in declaration order.
	Funcs []*Func
	// Name identifies the program in reports; optional.
	Name string
}

// Func looks up a function by name, or nil when absent.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global looks up a global declaration by name, or nil when absent.
func (p *Program) Global(name string) *VarDecl {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// VarDecl declares a variable. Globals with ArraySize > 0 are arrays of
// int; otherwise the variable is a scalar of the given type.
type VarDecl struct {
	Name string
	Type Type
	// ArraySize is the element count when the variable is an array of
	// int; zero for scalars.
	ArraySize int
	// Init is the optional scalar initializer (ints only); arrays are
	// zero-initialized and may be filled by the program input.
	Init int64
	// Line is the 1-based source line of a global declaration (0 for
	// parameters and hand-built declarations).
	Line int
}

// Func is a function definition. Parameters are ints unless listed in
// PtrParams (a set of parameter names with pointer type).
type Func struct {
	Name   string
	Params []*VarDecl
	Body   *Block
	// Line is the 1-based source line of the declaration (0 for
	// hand-built functions).
	Line int
}

// Block is a sequence of statements.
type Block struct {
	Stmts []Stmt
}

// Stmt is implemented by every statement node.
type Stmt interface {
	stmtNode()
	// Line is the 1-based source position used in diagnostics and, for
	// parsed programs, matches the surface syntax line.
	Line() int
}

type stmtBase struct {
	// Ln is the source line (0 when the node was built programmatically).
	Ln int
}

func (s stmtBase) stmtNode() {}

// Line reports the source line of the statement.
func (s stmtBase) Line() int { return s.Ln }

// AssignStmt assigns the value of RHS to the location LHS.
type AssignStmt struct {
	stmtBase
	LHS LValue
	RHS Expr
}

// IfStmt is a conditional. Else may be nil.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then *Block
	Else *Block
}

// WhileStmt is an uncounted loop. Uncounted loops need loop-counter
// instrumentation before their iteration counts can be reverse
// engineered from a core dump.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body *Block
}

// ForStmt is a counted loop over an int variable:
//
//	for Var = From .. To { Body }
//
// iterating while Var <= To with step 1. Counted loops carry an
// intrinsic loop counter (the loop variable), so they need no
// instrumentation.
type ForStmt struct {
	stmtBase
	Var  string
	From Expr
	To   Expr
	Body *Block
}

// CallStmt invokes a function, optionally binding its return value.
type CallStmt struct {
	stmtBase
	// Result receives the return value; nil to discard.
	Result LValue
	Name   string
	Args   []Expr
}

// ReturnStmt returns from the current function. Value may be nil.
type ReturnStmt struct {
	stmtBase
	Value Expr
}

// AcquireStmt acquires the named lock, blocking while it is held.
type AcquireStmt struct {
	stmtBase
	Lock string
}

// ReleaseStmt releases the named lock.
type ReleaseStmt struct {
	stmtBase
	Lock string
}

// SpawnStmt starts a new thread running the named function.
type SpawnStmt struct {
	stmtBase
	Func string
	Args []Expr
}

// AssertStmt crashes the program when Cond evaluates to false.
type AssertStmt struct {
	stmtBase
	Cond Expr
	Msg  string
}

// OutputStmt appends the value of Expr to the run's output log.
type OutputStmt struct {
	stmtBase
	Value Expr
}

// LabelStmt marks a goto target.
type LabelStmt struct {
	stmtBase
	Name string
}

// GotoStmt jumps to the statement labelled Name in the same function.
// Gotos are the source of non-aggregatable control dependences.
type GotoStmt struct {
	stmtBase
	Name string
}

// BreakStmt exits the innermost loop.
type BreakStmt struct {
	stmtBase
}

// ContinueStmt jumps to the test of the innermost loop.
type ContinueStmt struct {
	stmtBase
}

// VarStmt declares a function-local variable, optionally initialized.
type VarStmt struct {
	stmtBase
	Name string
	Type Type
	Init Expr // may be nil
}

// Expr is implemented by every expression node.
type Expr interface{ exprNode() }

type exprBase struct{}

func (exprBase) exprNode() {}

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
}

// BoolLit is a boolean literal.
type BoolLit struct {
	exprBase
	Value bool
}

// NullLit is the null pointer literal.
type NullLit struct{ exprBase }

// VarRef reads a scalar variable (local, parameter or global).
type VarRef struct {
	exprBase
	Name string
}

// IndexExpr reads element Index of array Name (a global array).
type IndexExpr struct {
	exprBase
	Name  string
	Index Expr
}

// FieldExpr reads field Field of the object pointed to by Obj.
// Evaluating it on a null pointer crashes the program.
type FieldExpr struct {
	exprBase
	Obj   Expr
	Field string
}

// NewExpr allocates a fresh heap object with the given fields (all
// initialized to zero/null) and evaluates to a pointer to it.
type NewExpr struct {
	exprBase
	Fields []string
}

// UnaryExpr applies Op ("!" or "-") to X.
type UnaryExpr struct {
	exprBase
	Op string
	X  Expr
}

// BinaryExpr applies Op to X and Y. "&&" and "||" short-circuit;
// when they guard an if/while condition the compiler lowers them to a
// chain of predicates sharing one predicate group, which is what makes
// their control dependences aggregatable.
type BinaryExpr struct {
	exprBase
	Op   string
	X, Y Expr
}

// LValue is an assignable location.
type LValue interface{ lvalueNode() }

type lvalueBase struct{}

func (lvalueBase) lvalueNode() {}

// VarLV assigns to a scalar variable.
type VarLV struct {
	lvalueBase
	Name string
}

// IndexLV assigns to an element of a global array.
type IndexLV struct {
	lvalueBase
	Name  string
	Index Expr
}

// FieldLV assigns to a field of a heap object.
type FieldLV struct {
	lvalueBase
	Obj   Expr
	Field string
}
