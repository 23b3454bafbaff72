package ir

import (
	"fmt"

	"heisendump/internal/lang"
)

// Options controls compilation.
type Options struct {
	// InstrumentLoops adds a synthetic iteration counter to every while
	// loop (counted `for` loops already carry one in their loop
	// variable). The counters are what lets the analysis reverse
	// engineer loop iteration counts from a core dump; emitting them is
	// the only production-run instrumentation the technique needs.
	InstrumentLoops bool
}

// Compile lowers a checked program to the flat instruction form.
func Compile(p *lang.Program, opts Options) (*Program, error) {
	if err := lang.Check(p); err != nil {
		return nil, err
	}
	out := &Program{
		Name:         p.Name,
		Globals:      p.Globals,
		Locks:        p.Locks,
		funcIndex:    make(map[string]int, len(p.Funcs)),
		globalIndex:  map[string]int{},
		arrayIndex:   map[string]int{},
		lockIndex:    make(map[string]int, len(p.Locks)),
		Instrumented: opts.InstrumentLoops,
	}
	for i, f := range p.Funcs {
		out.funcIndex[f.Name] = i
	}
	out.Main = out.funcIndex["main"] // Check refused a program without one
	// Intern globals, arrays and locks into the dense slot tables; the
	// expression resolver below compiles every variable access down to
	// an index into them.
	for _, g := range p.Globals {
		if g.ArraySize > 0 {
			out.arrayIndex[g.Name] = len(out.ArrayNames)
			out.ArrayNames = append(out.ArrayNames, g.Name)
			out.ArrayDecls = append(out.ArrayDecls, g)
		} else {
			out.globalIndex[g.Name] = len(out.ScalarNames)
			out.ScalarNames = append(out.ScalarNames, g.Name)
			out.ScalarDecls = append(out.ScalarDecls, g)
		}
	}
	for i, l := range p.Locks {
		out.lockIndex[l] = i
	}
	for _, f := range p.Funcs {
		cf, err := compileFunc(f, opts)
		if err != nil {
			return nil, fmt.Errorf("ir: %s: %w", f.Name, err)
		}
		if err := out.resolveFunc(cf); err != nil {
			return nil, fmt.Errorf("ir: %s: %w", f.Name, err)
		}
		out.Funcs = append(out.Funcs, cf)
	}
	out.BC = compileBytecode(out)
	return out, nil
}

// MustCompile is Compile but panics on error.
func MustCompile(p *lang.Program, opts Options) *Program {
	cp, err := Compile(p, opts)
	if err != nil {
		panic(err)
	}
	return cp
}

// patchRef identifies one branch-target slot awaiting its destination.
type patchRef struct {
	idx     int
	isFalse bool
}

type loopCtx struct {
	breaks    []patchRef
	continues []patchRef
}

type fcomp struct {
	opts     Options
	fn       *Func
	instrs   []Instr
	localSet map[string]bool
	labels   map[string]int
	gotoRefs []struct {
		idx  int
		name string
		line int
	}
	loops     []*loopCtx // active loop stack
	nextLoop  int
	nextGroup int
}

func compileFunc(f *lang.Func, opts Options) (*Func, error) {
	c := &fcomp{
		opts:     opts,
		fn:       &Func{Name: f.Name, Groups: map[int]GroupInfo{}},
		localSet: map[string]bool{},
		labels:   map[string]int{},
	}
	for _, prm := range f.Params {
		c.fn.Params = append(c.fn.Params, prm.Name)
		c.addLocal(prm.Name)
	}
	if err := c.block(f.Body); err != nil {
		return nil, err
	}
	// Canonical function exit: a final return that also serves as the
	// merge target for patches that fall off the end of the body.
	line := 0
	if n := len(f.Body.Stmts); n > 0 {
		line = f.Body.Stmts[n-1].Line()
	}
	c.emit(Instr{Op: OpReturn, Line: line})
	for _, g := range c.gotoRefs {
		target, ok := c.labels[g.name]
		if !ok {
			return nil, fmt.Errorf("line %d: unresolved label %q", g.line, g.name)
		}
		c.instrs[g.idx].True = target
	}
	c.fn.Instrs = c.instrs
	return c.fn, nil
}

func (c *fcomp) addLocal(name string) {
	if !c.localSet[name] {
		c.localSet[name] = true
		c.fn.Locals = append(c.fn.Locals, name)
	}
}

func (c *fcomp) emit(in Instr) int {
	if in.Op != OpBranch {
		in.PredGroup = -1
		in.LoopID = -1
	}
	c.instrs = append(c.instrs, in)
	return len(c.instrs) - 1
}

func (c *fcomp) here() int { return len(c.instrs) }

func (c *fcomp) patch(refs []patchRef, target int) {
	for _, r := range refs {
		if r.isFalse {
			c.instrs[r.idx].False = target
		} else {
			c.instrs[r.idx].True = target
		}
	}
}

func (c *fcomp) block(b *lang.Block) error {
	for _, s := range b.Stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *fcomp) stmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.VarStmt:
		c.addLocal(s.Name)
		if s.Init != nil {
			c.emit(Instr{Op: OpAssign, Line: s.Line(), SrcLHS: &lang.VarLV{Name: s.Name}, SrcRHS: s.Init})
		}
		return nil

	case *lang.AssignStmt:
		c.noteLValue(s.LHS)
		c.emit(Instr{Op: OpAssign, Line: s.Line(), SrcLHS: s.LHS, SrcRHS: s.RHS})
		return nil

	case *lang.IfStmt:
		group := c.nextGroup
		c.nextGroup++
		tRefs, fRefs := c.condJump(s.Cond, group, s.Line())
		thenStart := c.here()
		c.patch(tRefs, thenStart)
		if err := c.block(s.Then); err != nil {
			return err
		}
		if s.Else == nil {
			c.patch(fRefs, c.here())
			c.fn.Groups[group] = GroupInfo{Then: thenStart, Else: c.here(), Line: s.Line()}
			return nil
		}
		endJump := c.emit(Instr{Op: OpJump, Line: s.Line()})
		elseStart := c.here()
		c.patch(fRefs, elseStart)
		if err := c.block(s.Else); err != nil {
			return err
		}
		c.instrs[endJump].True = c.here()
		c.fn.Groups[group] = GroupInfo{Then: thenStart, Else: elseStart, Line: s.Line()}
		return nil

	case *lang.WhileStmt:
		return c.whileLoop(s)

	case *lang.ForStmt:
		return c.forLoop(s)

	case *lang.CallStmt:
		if s.Result != nil {
			c.noteLValue(s.Result)
		}
		c.emit(Instr{Op: OpCall, Line: s.Line(), CalleeName: s.Name, SrcArgs: s.Args, SrcLHS: s.Result})
		return nil

	case *lang.ReturnStmt:
		c.emit(Instr{Op: OpReturn, Line: s.Line(), SrcRHS: s.Value})
		return nil

	case *lang.AcquireStmt:
		c.emit(Instr{Op: OpAcquire, Line: s.Line(), LockName: s.Lock})
		return nil

	case *lang.ReleaseStmt:
		c.emit(Instr{Op: OpRelease, Line: s.Line(), LockName: s.Lock})
		return nil

	case *lang.SpawnStmt:
		c.emit(Instr{Op: OpSpawn, Line: s.Line(), CalleeName: s.Func, SrcArgs: s.Args})
		return nil

	case *lang.AssertStmt:
		c.emit(Instr{Op: OpAssert, Line: s.Line(), SrcCond: s.Cond, Msg: s.Msg})
		return nil

	case *lang.OutputStmt:
		c.emit(Instr{Op: OpOutput, Line: s.Line(), SrcRHS: s.Value})
		return nil

	case *lang.LabelStmt:
		if _, dup := c.labels[s.Name]; dup {
			return fmt.Errorf("line %d: duplicate label %q", s.Line(), s.Name)
		}
		c.labels[s.Name] = c.here()
		return nil

	case *lang.GotoStmt:
		idx := c.emit(Instr{Op: OpJump, Line: s.Line()})
		c.gotoRefs = append(c.gotoRefs, struct {
			idx  int
			name string
			line int
		}{idx, s.Name, s.Line()})
		return nil

	case *lang.BreakStmt:
		if len(c.loops) == 0 {
			return fmt.Errorf("line %d: break outside loop", s.Line())
		}
		idx := c.emit(Instr{Op: OpJump, Line: s.Line()})
		top := c.loops[len(c.loops)-1]
		top.breaks = append(top.breaks, patchRef{idx: idx})
		return nil

	case *lang.ContinueStmt:
		if len(c.loops) == 0 {
			return fmt.Errorf("line %d: continue outside loop", s.Line())
		}
		idx := c.emit(Instr{Op: OpJump, Line: s.Line()})
		top := c.loops[len(c.loops)-1]
		top.continues = append(top.continues, patchRef{idx: idx})
		return nil
	}
	return fmt.Errorf("line %d: cannot compile %T", s.Line(), s)
}

func (c *fcomp) noteLValue(lv lang.LValue) {
	if v, ok := lv.(*lang.VarLV); ok {
		// Assignment may target a global; addLocal is only for names not
		// resolvable as globals. The interpreter resolves names locals-
		// first, so registering a global name here would shadow it.
		// lang.Check has already verified the name resolves; we only
		// need to ensure declared locals appear in Locals, which VarStmt
		// and params handle. So nothing to do for plain variables.
		_ = v
	}
}

// whileLoop compiles an uncounted loop. With instrumentation enabled the
// loop receives a synthetic counter:
//
//	__lcN = 0                 (Synth)
//	head:  branch cond -> body, exit     (LoopID = N)
//	body:  __lcN = __lcN + 1  (Synth)
//	       ...body...
//	       jump head
//	exit:
//
// The loop head is always a single branch instruction — loop conditions
// are evaluated whole rather than lowered to short-circuit chains — so
// an n-iteration loop contributes a run of n identical loop-predicate
// entries to the execution index, matching the paper's §3.2 model.
func (c *fcomp) whileLoop(s *lang.WhileStmt) error {
	id := c.nextLoop
	c.nextLoop++
	loop := &Loop{ID: id, Line: s.Line(), Counted: false}

	if c.opts.InstrumentLoops {
		counter := fmt.Sprintf("__lc%d", id)
		c.addLocal(counter)
		loop.CounterVar = counter
		c.emit(Instr{Op: OpAssign, Line: s.Line(), Synth: true,
			SrcLHS: &lang.VarLV{Name: counter}, SrcRHS: &lang.IntLit{Value: 0}})
	}

	head := c.here()
	loop.HeadPC = head
	group := c.nextGroup
	c.nextGroup++
	branch := c.emit(Instr{Op: OpBranch, Line: s.Line(), SrcCond: s.Cond,
		PredGroup: group, LoopID: id})
	c.instrs[branch].True = c.here()

	if loop.CounterVar != "" {
		cv := loop.CounterVar
		c.emit(Instr{Op: OpAssign, Line: s.Line(), Synth: true,
			SrcLHS: &lang.VarLV{Name: cv},
			SrcRHS: &lang.BinaryExpr{Op: "+", X: &lang.VarRef{Name: cv}, Y: &lang.IntLit{Value: 1}}})
	}

	c.loops = append(c.loops, &loopCtx{})
	err := c.block(s.Body)
	ctx := c.loops[len(c.loops)-1]
	c.loops = c.loops[:len(c.loops)-1]
	if err != nil {
		return err
	}
	c.patch(ctx.continues, head)
	c.emit(Instr{Op: OpJump, Line: s.Line(), True: head})
	exit := c.here()
	c.instrs[branch].False = exit
	c.patch(ctx.breaks, exit)
	c.fn.Groups[group] = GroupInfo{Then: c.instrs[branch].True, Else: exit, Line: s.Line()}
	c.fn.Loops = append(c.fn.Loops, loop)
	return nil
}

// forLoop compiles a counted loop:
//
//	__fromN = From
//	i       = __fromN
//	__toN   = To
//	head:  branch i <= __toN -> body, exit   (LoopID = N)
//	body:  ...body...
//	inc:   i = i + 1
//	       jump head
//	exit:
//
// The loop variable is an intrinsic counter: at any point inside the
// body the iteration number is i - __fromN + 1, recoverable from a core
// dump without instrumentation.
func (c *fcomp) forLoop(s *lang.ForStmt) error {
	id := c.nextLoop
	c.nextLoop++
	fromVar := fmt.Sprintf("__from%d", id)
	toVar := fmt.Sprintf("__to%d", id)
	c.addLocal(s.Var)
	c.addLocal(fromVar)
	c.addLocal(toVar)

	c.emit(Instr{Op: OpAssign, Line: s.Line(), SrcLHS: &lang.VarLV{Name: fromVar}, SrcRHS: s.From})
	c.emit(Instr{Op: OpAssign, Line: s.Line(), SrcLHS: &lang.VarLV{Name: s.Var}, SrcRHS: &lang.VarRef{Name: fromVar}})
	c.emit(Instr{Op: OpAssign, Line: s.Line(), SrcLHS: &lang.VarLV{Name: toVar}, SrcRHS: s.To})

	head := c.here()
	group := c.nextGroup
	c.nextGroup++
	cond := &lang.BinaryExpr{Op: "<=", X: &lang.VarRef{Name: s.Var}, Y: &lang.VarRef{Name: toVar}}
	branch := c.emit(Instr{Op: OpBranch, Line: s.Line(), SrcCond: cond, PredGroup: group, LoopID: id})
	c.instrs[branch].True = c.here()

	c.loops = append(c.loops, &loopCtx{})
	err := c.block(s.Body)
	ctx := c.loops[len(c.loops)-1]
	c.loops = c.loops[:len(c.loops)-1]
	if err != nil {
		return err
	}
	inc := c.here()
	c.patch(ctx.continues, inc)
	c.emit(Instr{Op: OpAssign, Line: s.Line(), SrcLHS: &lang.VarLV{Name: s.Var},
		SrcRHS: &lang.BinaryExpr{Op: "+", X: &lang.VarRef{Name: s.Var}, Y: &lang.IntLit{Value: 1}}})
	c.emit(Instr{Op: OpJump, Line: s.Line(), True: head})
	exit := c.here()
	c.instrs[branch].False = exit
	c.patch(ctx.breaks, exit)
	c.fn.Groups[group] = GroupInfo{Then: c.instrs[branch].True, Else: exit, Line: s.Line()}

	c.fn.Loops = append(c.fn.Loops, &Loop{
		ID: id, HeadPC: head, Line: s.Line(),
		Counted: true, CounterVar: s.Var, FromVar: fromVar,
	})
	return nil
}

// condJump lowers a conditional-statement guard to a chain of branch
// instructions implementing short-circuit evaluation. Every branch in
// the chain carries the same PredGroup, which is what makes the
// resulting multiple control dependences "aggregatable to one" complex
// predicate during index reverse engineering.
//
// It returns the patch lists for the true and false exits of the chain.
func (c *fcomp) condJump(e lang.Expr, group, line int) (tRefs, fRefs []patchRef) {
	switch e := e.(type) {
	case *lang.BinaryExpr:
		switch e.Op {
		case "&&":
			tX, fX := c.condJump(e.X, group, line)
			c.patch(tX, c.here())
			tY, fY := c.condJump(e.Y, group, line)
			return tY, append(fX, fY...)
		case "||":
			tX, fX := c.condJump(e.X, group, line)
			c.patch(fX, c.here())
			tY, fY := c.condJump(e.Y, group, line)
			return append(tX, tY...), fY
		}
	case *lang.UnaryExpr:
		if e.Op == "!" {
			t, f := c.condJump(e.X, group, line)
			return f, t
		}
	}
	idx := c.emit(Instr{Op: OpBranch, Line: line, SrcCond: e, PredGroup: group, LoopID: -1})
	return []patchRef{{idx: idx}}, []patchRef{{idx: idx, isFalse: true}}
}
