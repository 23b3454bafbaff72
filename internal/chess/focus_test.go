package chess_test

import (
	"testing"

	"heisendump/internal/chess"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/sched"
	"heisendump/internal/trace"
)

// TestFocusMatchesBaseNameAcrossKinds: a static focus set names base
// names, and NewFocus keeps that across location kinds: a flagged
// global x also flags every object's field x, and a flagged z flags
// the local z. Over every variable a run of the program touches, Has
// agrees with the flagged set looked up by the variable's base name.
func TestFocusMatchesBaseNameAcrossKinds(t *testing.T) {
	prog, err := ir.Compile(lang.MustParse(`
program focus;
global int x;
global int arr[2];
func main() {
    var ptr p = new(x);
    var ptr q = new(x);
    var int z = 1;
    p.x = z;
    q.x = x;
    arr[1] = x;
}
`), ir.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if chess.NewFocus(prog, nil) != nil {
		t.Fatal("a nil name set must give no focus")
	}
	names := map[string]bool{"x": true, "z": true}
	focus := chess.NewFocus(prog, names)

	field := interp.VarID{Kind: interp.VField, Slot: prog.BC.NameID("x"), Idx: 2}
	global := interp.VarID{Kind: interp.VGlobal, Slot: int32(prog.GlobalSlot("x"))}
	elem := interp.VarID{Kind: interp.VArrayElem, Slot: int32(prog.ArraySlot("arr")), Idx: 1}
	if !focus.Has(global) || !focus.Has(field) || focus.Has(elem) {
		t.Fatalf("global x %v, field x %v, arr[1] %v; want true, true, false",
			focus.Has(global), focus.Has(field), focus.Has(elem))
	}

	rec := trace.NewRecorder()
	m := interp.New(prog, nil)
	m.Hooks = rec
	sched.Run(m, sched.NewCooperative())
	kinds := map[interp.VarKind]int{}
	for _, v := range rec.Vars {
		if got, want := focus.Has(v), names[v.Name(prog)]; got != want {
			t.Fatalf("%s: Has = %v, want %v", v.Format(prog), got, want)
		}
		if focus.Has(v) {
			kinds[v.Kind]++
		}
	}
	if kinds[interp.VGlobal] != 1 || kinds[interp.VField] != 2 || kinds[interp.VLocal] != 1 {
		t.Fatalf("flagged variables by kind %v, want the global x, both fields x and the local z", kinds)
	}
}
