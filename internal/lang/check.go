package lang

import "fmt"

// Check performs static validation of a program: entry point presence,
// declaration-before-use of variables, resolution of function names,
// lock names and goto labels, and duplicate-declaration detection.
// Parse runs Check automatically; programs built directly from AST nodes
// should call it before compilation. Every rejection is a typed *Error
// with Phase "check" (message text unchanged), so callers can classify
// a bad subject program with errors.As.
func Check(p *Program) error {
	return sourceError("check", check(p))
}

// MaxArrayElements bounds the elements a program's global arrays may
// declare in total. Every machine allocates its arrays in full at
// Reset, so an unbounded declaration is a memory exhaustion vector for
// a service running untrusted programs; the largest array in the
// workload corpus has 66 elements.
const MaxArrayElements = 1 << 16

// MaxFieldNames bounds the distinct field names a program may spell,
// in `new` lists and field accesses together. An object holds only
// fields the program names, so this also bounds an object's width, and
// the interpreter finds a field by scanning its object's names: the
// bound keeps one field access cheap for a service running untrusted
// programs. No workload in the corpus spells more than 2.
const MaxFieldNames = 256

func check(p *Program) error {
	if p.Func("main") == nil {
		return fmt.Errorf("lang: program %q has no main function", p.Name)
	}
	globals := map[string]*VarDecl{}
	elems := 0
	for _, g := range p.Globals {
		if _, dup := globals[g.Name]; dup {
			return fmt.Errorf("lang: line %d: duplicate global %q", g.Line, g.Name)
		}
		globals[g.Name] = g
		if g.ArraySize < 0 {
			return fmt.Errorf("lang: line %d: array %s has negative size %d", g.Line, g.Name, g.ArraySize)
		}
		if g.ArraySize > MaxArrayElements-elems {
			return fmt.Errorf("lang: line %d: array %s[%d] takes the program's global arrays past %d elements",
				g.Line, g.Name, g.ArraySize, MaxArrayElements)
		}
		elems += g.ArraySize
	}
	locks := map[string]bool{}
	for i, l := range p.Locks {
		line := 0
		if i < len(p.LockLines) {
			line = p.LockLines[i]
		}
		if locks[l] {
			return fmt.Errorf("lang: line %d: duplicate lock %q", line, l)
		}
		if _, clash := globals[l]; clash {
			return fmt.Errorf("lang: line %d: lock %q clashes with a global", line, l)
		}
		locks[l] = true
	}
	fields := map[string]bool{}
	funcs := map[string]*Func{}
	for _, f := range p.Funcs {
		if _, dup := funcs[f.Name]; dup {
			return fmt.Errorf("lang: line %d: duplicate function %q", f.Line, f.Name)
		}
		funcs[f.Name] = f
	}
	for _, f := range p.Funcs {
		c := &checker{prog: p, fn: f, globals: globals, locks: locks, funcs: funcs,
			fields: fields, locals: map[string]Type{}, labels: map[string]bool{}}
		for _, prm := range f.Params {
			if _, dup := c.locals[prm.Name]; dup {
				return fmt.Errorf("lang: %s: line %d: duplicate parameter %q", f.Name, f.Line, prm.Name)
			}
			c.locals[prm.Name] = prm.Type
		}
		collectLabels(f.Body, c.labels)
		if err := c.checkBlock(f.Body, 0); err != nil {
			return fmt.Errorf("lang: %s: %w", f.Name, err)
		}
	}
	return nil
}

func collectLabels(b *Block, out map[string]bool) {
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *LabelStmt:
			out[s.Name] = true
		case *IfStmt:
			collectLabels(s.Then, out)
			if s.Else != nil {
				collectLabels(s.Else, out)
			}
		case *WhileStmt:
			collectLabels(s.Body, out)
		case *ForStmt:
			collectLabels(s.Body, out)
		}
	}
}

type checker struct {
	prog    *Program
	fn      *Func
	globals map[string]*VarDecl
	locks   map[string]bool
	funcs   map[string]*Func
	fields  map[string]bool // field names spelled so far, program-wide
	locals  map[string]Type
	labels  map[string]bool
}

func (c *checker) checkBlock(b *Block, loopDepth int) error {
	for _, s := range b.Stmts {
		if err := c.checkStmt(s, loopDepth); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt, loopDepth int) error {
	switch s := s.(type) {
	case *VarStmt:
		if _, dup := c.locals[s.Name]; dup {
			return fmt.Errorf("line %d: duplicate local %q", s.Line(), s.Name)
		}
		if _, clash := c.globals[s.Name]; clash {
			return fmt.Errorf("line %d: local %q shadows a global", s.Line(), s.Name)
		}
		c.locals[s.Name] = s.Type
		if s.Init != nil {
			return c.checkExpr(s.Init, s.Line())
		}
		return nil
	case *AssignStmt:
		if err := c.checkLValue(s.LHS, s.Line()); err != nil {
			return err
		}
		return c.checkExpr(s.RHS, s.Line())
	case *IfStmt:
		if err := c.checkExpr(s.Cond, s.Line()); err != nil {
			return err
		}
		if err := c.checkBlock(s.Then, loopDepth); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkBlock(s.Else, loopDepth)
		}
		return nil
	case *WhileStmt:
		if err := c.checkExpr(s.Cond, s.Line()); err != nil {
			return err
		}
		return c.checkBlock(s.Body, loopDepth+1)
	case *ForStmt:
		// The loop variable is always a local of the enclosing function
		// (compilation lowers it to a frame slot), declared implicitly by
		// the loop when no `var` introduced it. A global of the same name
		// would be silently shadowed — the loop would count in a local
		// while readers of the global saw nothing — so that is an error
		// here, exactly like an explicit `var` shadowing a global.
		if _, ok := c.locals[s.Var]; !ok {
			if _, clash := c.globals[s.Var]; clash {
				return fmt.Errorf("line %d: loop variable %q shadows a global", s.Line(), s.Var)
			}
			c.locals[s.Var] = TypeInt
		}
		if err := c.checkExpr(s.From, s.Line()); err != nil {
			return err
		}
		if err := c.checkExpr(s.To, s.Line()); err != nil {
			return err
		}
		return c.checkBlock(s.Body, loopDepth+1)
	case *CallStmt:
		callee, ok := c.funcs[s.Name]
		if !ok {
			return fmt.Errorf("line %d: call to undefined function %q", s.Line(), s.Name)
		}
		if len(s.Args) != len(callee.Params) {
			return fmt.Errorf("line %d: call to %q with %d args, want %d",
				s.Line(), s.Name, len(s.Args), len(callee.Params))
		}
		if s.Result != nil {
			if err := c.checkLValue(s.Result, s.Line()); err != nil {
				return err
			}
		}
		for _, a := range s.Args {
			if err := c.checkExpr(a, s.Line()); err != nil {
				return err
			}
		}
		return nil
	case *ReturnStmt:
		if s.Value != nil {
			return c.checkExpr(s.Value, s.Line())
		}
		return nil
	case *AcquireStmt:
		if !c.locks[s.Lock] {
			return fmt.Errorf("line %d: acquire of undeclared lock %q", s.Line(), s.Lock)
		}
		return nil
	case *ReleaseStmt:
		if !c.locks[s.Lock] {
			return fmt.Errorf("line %d: release of undeclared lock %q", s.Line(), s.Lock)
		}
		return nil
	case *SpawnStmt:
		callee, ok := c.funcs[s.Func]
		if !ok {
			return fmt.Errorf("line %d: spawn of undefined function %q", s.Line(), s.Func)
		}
		if len(s.Args) != len(callee.Params) {
			return fmt.Errorf("line %d: spawn of %q with %d args, want %d",
				s.Line(), s.Func, len(s.Args), len(callee.Params))
		}
		for _, a := range s.Args {
			if err := c.checkExpr(a, s.Line()); err != nil {
				return err
			}
		}
		return nil
	case *AssertStmt:
		return c.checkExpr(s.Cond, s.Line())
	case *OutputStmt:
		return c.checkExpr(s.Value, s.Line())
	case *LabelStmt:
		return nil
	case *GotoStmt:
		if !c.labels[s.Name] {
			return fmt.Errorf("line %d: goto undefined label %q", s.Line(), s.Name)
		}
		return nil
	case *BreakStmt:
		if loopDepth == 0 {
			return fmt.Errorf("line %d: break outside loop", s.Line())
		}
		return nil
	case *ContinueStmt:
		if loopDepth == 0 {
			return fmt.Errorf("line %d: continue outside loop", s.Line())
		}
		return nil
	}
	return fmt.Errorf("unknown statement %T", s)
}

// scalar checks that name, used without an index, is a local or a
// scalar global: the compiler resolves such a use to no array.
func (c *checker) scalar(name string, line int, use string) error {
	if _, ok := c.locals[name]; ok {
		return nil
	}
	g, ok := c.globals[name]
	if !ok {
		return fmt.Errorf("line %d: %s undeclared variable %q", line, use, name)
	}
	if g.ArraySize > 0 {
		return fmt.Errorf("line %d: array %q used without an index", line, name)
	}
	return nil
}

func (c *checker) checkLValue(lv LValue, line int) error {
	switch lv := lv.(type) {
	case *VarLV:
		return c.scalar(lv.Name, line, "assignment to")
	case *IndexLV:
		g, ok := c.globals[lv.Name]
		if !ok || g.ArraySize == 0 {
			return fmt.Errorf("line %d: %q is not a global array", line, lv.Name)
		}
		return c.checkExpr(lv.Index, line)
	case *FieldLV:
		if err := c.checkField(lv.Field, line); err != nil {
			return err
		}
		return c.checkExpr(lv.Obj, line)
	}
	return fmt.Errorf("line %d: unknown lvalue %T", line, lv)
}

func (c *checker) checkExpr(e Expr, line int) error {
	switch e := e.(type) {
	case *IntLit, *BoolLit, *NullLit:
		return nil
	case *NewExpr:
		for _, f := range e.Fields {
			if err := c.checkField(f, line); err != nil {
				return err
			}
		}
		return nil
	case *VarRef:
		return c.scalar(e.Name, line, "use of")
	case *IndexExpr:
		g, ok := c.globals[e.Name]
		if !ok || g.ArraySize == 0 {
			return fmt.Errorf("line %d: %q is not a global array", line, e.Name)
		}
		return c.checkExpr(e.Index, line)
	case *FieldExpr:
		if err := c.checkField(e.Field, line); err != nil {
			return err
		}
		return c.checkExpr(e.Obj, line)
	case *UnaryExpr:
		return c.checkExpr(e.X, line)
	case *BinaryExpr:
		if err := c.checkExpr(e.X, line); err != nil {
			return err
		}
		return c.checkExpr(e.Y, line)
	}
	return fmt.Errorf("line %d: unknown expression %T", line, e)
}

// checkField counts a spelled field name against MaxFieldNames.
func (c *checker) checkField(name string, line int) error {
	if c.fields[name] {
		return nil
	}
	if len(c.fields) == MaxFieldNames {
		return fmt.Errorf("line %d: field %q takes the program past %d distinct field names", line, name, MaxFieldNames)
	}
	c.fields[name] = true
	return nil
}
