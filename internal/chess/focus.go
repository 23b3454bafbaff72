package chess

import (
	"heisendump/internal/interp"
	"heisendump/internal/ir"
)

// Focus is the static-analysis focus set in a program's slot ids: one
// set per location kind, of the slots whose base name the lockset
// analyzer flagged. A flagged name matches every kind, as the names
// did: a global, every element of an array, a field of any object and
// a local of any function, each named so.
type Focus struct {
	globals, arrays, fields []bool
	locals                  [][]bool // by function, then local slot
}

// NewFocus translates flagged base names (statics.Report.FocusSet) into
// prog's slot ids, once per search. A nil set yields a nil Focus, which
// leaves the exploration order exactly as without static guidance.
func NewFocus(prog *ir.Program, names map[string]bool) *Focus {
	if names == nil {
		return nil
	}
	in := func(table []string) []bool {
		set := make([]bool, len(table))
		for i, name := range table {
			set[i] = names[name]
		}
		return set
	}
	f := &Focus{
		globals: in(prog.ScalarNames),
		arrays:  in(prog.ArrayNames),
		fields:  in(prog.BC.Names),
		locals:  make([][]bool, len(prog.Funcs)),
	}
	for i, fn := range prog.Funcs {
		f.locals[i] = in(fn.Locals)
	}
	return f
}

// Has reports whether v's base name is flagged.
func (f *Focus) Has(v interp.VarID) bool {
	var set []bool
	switch v.Kind {
	case interp.VGlobal:
		set = f.globals
	case interp.VArrayElem:
		set = f.arrays
	case interp.VField:
		set = f.fields
	case interp.VLocal:
		if v.Func < 0 || int(v.Func) >= len(f.locals) {
			return false
		}
		set = f.locals[v.Func]
	}
	return v.Slot >= 0 && int(v.Slot) < len(set) && set[v.Slot]
}
