package lang

import "fmt"

// Parse parses a complete program in the mini language's surface syntax.
//
// The grammar, informally:
//
//	program   = [ "program" ident ";" ] { decl }
//	decl      = "global" type ident [ "[" int "]" ] [ "=" int ] ";"
//	          | "lock" ident ";"
//	          | "func" ident "(" [ params ] ")" block
//	params    = type ident { "," type ident }
//	block     = "{" { stmt } "}"
//	stmt      = "var" type ident [ "=" expr ] ";"
//	          | ident ":"                        (label)
//	          | "goto" ident ";"
//	          | "if" "(" expr ")" block [ "else" (block | ifstmt) ]
//	          | "while" "(" expr ")" block
//	          | "for" ident "=" expr ".." expr block
//	          | "return" [ expr ] ";"
//	          | "acquire" "(" ident ")" ";"
//	          | "release" "(" ident ")" ";"
//	          | "spawn" ident "(" [ args ] ")" ";"
//	          | "assert" "(" expr [ "," string ] ")" ";"
//	          | "output" expr ";"
//	          | "break" ";" | "continue" ";"
//	          | ident "(" [ args ] ")" ";"       (call)
//	          | lvalue "=" expr ";"              (assign; expr may be a call)
//	expr      = or-expr with the usual precedence:
//	            || < && < == != < <= > >= < + - < * / % < unary ! - < postfix .field
//	primary   = int | "true" | "false" | "null" | "new" "(" fields ")"
//	          | ident | ident "[" expr "]" | "(" expr ")"
//
// Calls appear only in statement position (bare or as the entire
// right-hand side of an assignment); this keeps every interpreter step a
// single atomic action, which is what the schedule-search layer assumes.
// Nesting is bounded by MaxNestingDepth, so neither the parser nor a
// later pass over the tree recurses without bound. Parse rejections
// are typed: syntax errors (including lexer errors)
// come back as *Error with Phase "parse", and the Check it runs
// returns Phase "check" — so callers can classify a bad subject
// program without string matching.
func Parse(src string) (*Program, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, sourceError("parse", err)
	}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, sourceError("parse", err)
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse is Parse but panics on error; intended for tests and for
// workload definitions embedded as string constants.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// MaxNestingDepth bounds how deeply a program may nest: blocks,
// else-if links, parenthesized and bracketed expressions, unary
// operators, and the operators of one binary or field-access chain
// each count one level. The parser and every later pass over the
// syntax tree (Check, ir.Compile, the static analyses) recurse once
// per level, and a Go stack overflow is fatal rather than a
// recoverable panic, so a source nested past the limit is refused as a
// parse error at the line where it crosses it. Real programs nest a
// few dozen levels at most.
const MaxNestingDepth = 1000

type parser struct {
	lex *lexer
	tok token
	// depth is the current nesting depth (see MaxNestingDepth).
	depth int
}

// nest enters one nesting level; the caller leaves it by lowering
// p.depth again once the nested construct has parsed. Going past
// MaxNestingDepth is a parse error, which ends the parse, so error
// paths need not restore the depth.
func (p *parser) nest() error {
	p.depth++
	if p.depth > MaxNestingDepth {
		return p.errorf("nesting deeper than %d levels", MaxNestingDepth)
	}
	return nil
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.tok.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return p.errorf("expected %q, found %s", s, p.tok)
	}
	return p.advance()
}

func (p *parser) expectIdent() (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.errorf("expected identifier, found %s", p.tok)
	}
	name := p.tok.text
	return name, p.advance()
}

func (p *parser) atKeyword(s string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == s
}

func (p *parser) atPunct(s string) bool {
	return p.tok.kind == tokPunct && p.tok.text == s
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	if p.atKeyword("program") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		prog.Name = name
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
	}
	for p.tok.kind != tokEOF {
		switch {
		case p.atKeyword("global"):
			d, err := p.parseGlobal()
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, d)
		case p.atKeyword("lock"):
			line := p.tok.line
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			prog.Locks = append(prog.Locks, name)
			prog.LockLines = append(prog.LockLines, line)
		case p.atKeyword("func"):
			f, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, f)
		default:
			return nil, p.errorf("expected declaration, found %s", p.tok)
		}
	}
	return prog, nil
}

func (p *parser) parseType() (Type, error) {
	if p.tok.kind != tokKeyword {
		return 0, p.errorf("expected type, found %s", p.tok)
	}
	var t Type
	switch p.tok.text {
	case "int":
		t = TypeInt
	case "bool":
		t = TypeBool
	case "ptr":
		t = TypePtr
	default:
		return 0, p.errorf("expected type, found %s", p.tok)
	}
	return t, p.advance()
}

func (p *parser) parseGlobal() (*VarDecl, error) {
	line := p.tok.line
	if err := p.advance(); err != nil { // consume "global"
		return nil, err
	}
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &VarDecl{Name: name, Type: t, Line: line}
	if p.atPunct("[") {
		if t != TypeInt {
			return nil, p.errorf("array global %s must have element type int", name)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokInt {
			return nil, p.errorf("expected array size, found %s", p.tok)
		}
		d.ArraySize = int(p.tok.val)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
	}
	if p.atPunct("=") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		neg := false
		if p.atPunct("-") {
			neg = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.kind != tokInt {
			return nil, p.errorf("expected integer initializer, found %s", p.tok)
		}
		d.Init = p.tok.val
		if neg {
			d.Init = -d.Init
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return d, p.expectPunct(";")
}

func (p *parser) parseFunc() (*Func, error) {
	line := p.tok.line
	if err := p.advance(); err != nil { // consume "func"
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	f := &Func{Name: name, Line: line}
	for !p.atPunct(")") {
		if len(f.Params) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		pname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		f.Params = append(f.Params, &VarDecl{Name: pname, Type: t})
	}
	if err := p.advance(); err != nil { // consume ")"
		return nil, err
	}
	f.Body, err = p.parseBlock()
	return f, err
}

func (p *parser) parseBlock() (*Block, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	if err := p.nest(); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.atPunct("}") {
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unexpected end of input in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.depth--
	return b, p.advance()
}

func (p *parser) parseStmt() (Stmt, error) {
	line := p.tok.line
	base := stmtBase{Ln: line}
	switch {
	case p.atKeyword("var"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		s := &VarStmt{stmtBase: base, Name: name, Type: t}
		if p.atPunct("=") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			s.Init, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		return s, p.expectPunct(";")

	case p.atKeyword("if"):
		return p.parseIf(base)

	case p.atKeyword("while"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{stmtBase: base, Cond: cond, Body: body}, nil

	case p.atKeyword("for"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		from, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(".."); err != nil {
			return nil, err
		}
		to, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ForStmt{stmtBase: base, Var: v, From: from, To: to, Body: body}, nil

	case p.atKeyword("return"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		s := &ReturnStmt{stmtBase: base}
		if !p.atPunct(";") {
			var err error
			s.Value, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		return s, p.expectPunct(";")

	case p.atKeyword("acquire"), p.atKeyword("release"):
		kw := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		if kw == "acquire" {
			return &AcquireStmt{stmtBase: base, Lock: name}, nil
		}
		return &ReleaseStmt{stmtBase: base, Lock: name}, nil

	case p.atKeyword("spawn"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return &SpawnStmt{stmtBase: base, Func: name, Args: args}, p.expectPunct(";")

	case p.atKeyword("assert"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s := &AssertStmt{stmtBase: base, Cond: cond, Msg: "assertion failed"}
		if p.atPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokString {
				return nil, p.errorf("expected string message, found %s", p.tok)
			}
			s.Msg = p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return s, p.expectPunct(";")

	case p.atKeyword("output"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &OutputStmt{stmtBase: base, Value: e}, p.expectPunct(";")

	case p.atKeyword("goto"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &GotoStmt{stmtBase: base, Name: name}, p.expectPunct(";")

	case p.atKeyword("break"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &BreakStmt{stmtBase: base}, p.expectPunct(";")

	case p.atKeyword("continue"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &ContinueStmt{stmtBase: base}, p.expectPunct(";")

	case p.tok.kind == tokIdent:
		return p.parseSimpleStmt(base)
	}
	return nil, p.errorf("expected statement, found %s", p.tok)
}

// parseIf handles "if (cond) block [else block|if...]".
func (p *parser) parseIf(base stmtBase) (Stmt, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{stmtBase: base, Cond: cond, Then: then}
	if p.atKeyword("else") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.atKeyword("if") {
			if err := p.nest(); err != nil {
				return nil, err
			}
			elif, err := p.parseIf(stmtBase{Ln: p.tok.line})
			if err != nil {
				return nil, err
			}
			p.depth--
			s.Else = &Block{Stmts: []Stmt{elif}}
		} else {
			s.Else, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// parseSimpleStmt parses labels, calls and assignments, all of which
// begin with an identifier.
func (p *parser) parseSimpleStmt(base stmtBase) (Stmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}

	if p.atPunct(":") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &LabelStmt{stmtBase: base, Name: name}, nil
	}

	if p.atPunct("(") { // bare call
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return &CallStmt{stmtBase: base, Name: name, Args: args}, p.expectPunct(";")
	}

	// Assignment target: name, name[expr] or name.fields...
	lv, err := p.parseLValueTail(name)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}

	// "lhs = callee(args);" binds a call result.
	if p.tok.kind == tokIdent {
		callee := p.tok.text
		save := *p.lex
		saveTok := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.atPunct("(") {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &CallStmt{stmtBase: base, Result: lv, Name: callee, Args: args}, p.expectPunct(";")
		}
		*p.lex = save
		p.tok = saveTok
	}

	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{stmtBase: base, LHS: lv, RHS: rhs}, p.expectPunct(";")
}

// parseLValueTail finishes an lvalue whose leading identifier has been
// consumed.
func (p *parser) parseLValueTail(name string) (LValue, error) {
	if p.atPunct("[") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		return &IndexLV{Name: name, Index: idx}, nil
	}
	if p.atPunct(".") {
		var obj Expr = &VarRef{Name: name}
		var field string
		for p.atPunct(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			f, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if field != "" {
				obj = &FieldExpr{Obj: obj, Field: field}
			}
			field = f
		}
		return &FieldLV{Obj: obj, Field: field}, nil
	}
	return &VarLV{Name: name}, nil
}

func (p *parser) parseArgs() ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.atPunct(")") {
		if len(args) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	return args, p.advance()
}

// Expression parsing: precedence climbing.

func (p *parser) parseExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	x, err := p.parseBinary(0)
	p.depth--
	return x, err
}

// binaryLevels lists operators from lowest to highest precedence.
var binaryLevels = [][]string{
	{"||"},
	{"&&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(binaryLevels) {
		return p.parseUnary()
	}
	x, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	depth := p.depth
	for p.tok.kind == tokPunct && contains(binaryLevels[level], p.tok.text) {
		// Each operator of a chain nests the chain so far one level
		// deeper in the tree.
		if err := p.nest(); err != nil {
			return nil, err
		}
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		y, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: op, X: x, Y: y}
	}
	p.depth = depth
	return x, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.atPunct("!") || p.atPunct("-") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &UnaryExpr{Op: op, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	depth := p.depth
	for p.atPunct(".") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		f, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		x = &FieldExpr{Obj: x, Field: f}
	}
	p.depth = depth
	return x, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.kind == tokInt:
		v := p.tok.val
		return &IntLit{Value: v}, p.advance()
	case p.atKeyword("true"):
		return &BoolLit{Value: true}, p.advance()
	case p.atKeyword("false"):
		return &BoolLit{Value: false}, p.advance()
	case p.atKeyword("null"):
		return &NullLit{}, p.advance()
	case p.atKeyword("new"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var fields []string
		for !p.atPunct(")") {
			if len(fields) > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			f, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			fields = append(fields, f)
		}
		return &NewExpr{Fields: fields}, p.advance()
	case p.tok.kind == tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.atPunct("[") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			return &IndexExpr{Name: name, Index: idx}, nil
		}
		return &VarRef{Name: name}, nil
	case p.atPunct("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")
	}
	return nil, p.errorf("expected expression, found %s", p.tok)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
