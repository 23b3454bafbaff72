package lang_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"heisendump/internal/lang"
)

func TestParseMinimal(t *testing.T) {
	p, err := lang.Parse(`
program p;
func main() {
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "p" || len(p.Funcs) != 1 {
		t.Fatalf("bad program: %+v", p)
	}
}

func TestParseDeclarations(t *testing.T) {
	p, err := lang.Parse(`
program decls;
global int x = 5;
global int neg = -3;
global bool flag;
global ptr head;
global int arr[16];
lock L1;
lock L2;
func main() {
    x = x + 1;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Globals) != 5 {
		t.Fatalf("globals: %d", len(p.Globals))
	}
	if g := p.Global("neg"); g == nil || g.Init != -3 {
		t.Fatalf("neg: %+v", p.Global("neg"))
	}
	if g := p.Global("arr"); g == nil || g.ArraySize != 16 {
		t.Fatalf("arr: %+v", p.Global("arr"))
	}
	if len(p.Locks) != 2 {
		t.Fatalf("locks: %v", p.Locks)
	}
	if p.Global("nothere") != nil || p.Func("nothere") != nil {
		t.Fatal("lookup of missing names should be nil")
	}
}

func TestParseAllStatements(t *testing.T) {
	_, err := lang.Parse(`
program stmts;
global int x;
global int a[4];
global ptr p;
lock L;
func main() {
    var int i = 0;
    var ptr q;
    x = 1;
    a[0] = x * 2;
    q = new(f, g);
    q.f = 3;
    p = q;
    p.g = p.f + 1;
    if (x > 0 && x < 10) {
        x = 2;
    } else if (x == 0) {
        x = 3;
    } else {
        x = 4;
    }
    while (i < 5) {
        i = i + 1;
        if (i == 2) {
            continue;
        }
        if (i == 4) {
            break;
        }
    }
    for i = 1 .. 3 {
        output i;
    }
    acquire(L);
    release(L);
    spawn helper(1);
    i = ret2();
    helper(i);
    assert(i >= 0, "nonneg");
    if (x == 99) {
        goto done;
    }
    x = x % 3;
done:
    return;
}
func helper(int n) {
    output n;
}
func ret2() {
    return 2;
}
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no main":          `program p; func f() { }`,
		"undeclared var":   `program p; func main() { x = 1; }`,
		"unknown func":     `program p; func main() { f(); }`,
		"undeclared lock":  `program p; func main() { acquire(L); }`,
		"bad label":        `program p; func main() { goto nowhere; }`,
		"break outside":    `program p; func main() { break; }`,
		"continue outside": `program p; func main() { continue; }`,
		"dup global":       `program p; global int x; global int x; func main() { }`,
		"dup func":         `program p; func main() { } func main() { }`,
		"dup lock":         `program p; lock L; lock L; func main() { }`,
		"dup local":        `program p; func main() { var int a; var int a; }`,
		"dup param":        `program p; func main() { } func f(int a, int a) { }`,
		"arity mismatch":   `program p; func main() { f(1, 2); } func f(int a) { }`,
		"bool array":       `program p; global bool b[3]; func main() { }`,
		"unterminated str": `program p; func main() { assert(true, "oops); }`,
		"stray char":       `program p; func main() { $ }`,
		"malformed number": `program p; func main() { output 12ab; }`,
		"shadowed global":  `program p; global int g; func main() { var int g; }`,
		"index non-array":  `program p; global int x; func main() { x[0] = 1; }`,
		"array write":      `program p; global int a[2]; func main() { a = 1; }`,
		"array read":       `program p; global int a[2]; func main() { var int x = a; }`,
		"unclosed block":   `program p; func main() { if (true) {`,
	}
	for name, src := range cases {
		_, err := lang.Parse(src)
		var le *lang.Error
		if !errors.As(err, &le) {
			t.Errorf("%s: want a *lang.Error, got %v", name, err)
			continue
		}
		// Every rejection but the missing main is about a line.
		if le.Line < 1 && name != "no main" {
			t.Errorf("%s: %q carries no line", name, err)
		}
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	_, err := lang.Parse(`
// leading comment
program c; // trailing
func main() {
    // body comment
    output 1; // after statement
}
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	// 2 + 3 * 4 == 14 must parse with * binding tighter.
	p, err := lang.Parse(`
program prec;
global int r;
func main() {
    r = 2 + 3 * 4;
    assert(r == 14, "precedence");
}
`)
	if err != nil {
		t.Fatal(err)
	}
	fn := p.Func("main")
	assign, ok := fn.Body.Stmts[0].(*lang.AssignStmt)
	if !ok {
		t.Fatalf("first stmt %T", fn.Body.Stmts[0])
	}
	bin, ok := assign.RHS.(*lang.BinaryExpr)
	if !ok || bin.Op != "+" {
		t.Fatalf("top operator %v, want +", assign.RHS)
	}
}

func TestUnaryAndComparisons(t *testing.T) {
	_, err := lang.Parse(`
program ops;
global int a;
func main() {
    var bool b;
    b = !(a == 1) && (a != 2) || (a <= 3) && (a >= -4);
    if (b) {
        a = -a;
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickIdentifiersParse: any generated identifier-shaped global
// name parses and is resolvable.
func TestQuickIdentifiersParse(t *testing.T) {
	letters := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
	digits := "0123456789"
	f := func(seed uint32, length uint8) bool {
		n := int(length%12) + 1
		name := make([]byte, 0, n)
		s := seed
		for i := 0; i < n; i++ {
			s = s*1664525 + 1013904223
			if i == 0 {
				name = append(name, letters[s%uint32(len(letters))])
			} else {
				all := letters + digits
				name = append(name, all[s%uint32(len(all))])
			}
		}
		id := string(name)
		if isKeyword(id) {
			return true
		}
		src := fmt.Sprintf("program q;\nglobal int %s;\nfunc main() { %s = %s + 1; }\n", id, id, id)
		_, err := lang.Parse(src)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func isKeyword(s string) bool {
	for _, k := range strings.Fields("program global lock func var if else while for return acquire release spawn assert output goto break continue int bool ptr true false null new") {
		if s == k {
			return true
		}
	}
	return false
}

// TestQuickIntLiterals: any non-negative int64 literal round-trips
// through the parser.
func TestQuickIntLiterals(t *testing.T) {
	f := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		if v < 0 { // math.MinInt64
			return true
		}
		src := fmt.Sprintf("program q;\nglobal int x = %d;\nfunc main() { }\n", v)
		p, err := lang.Parse(src)
		if err != nil {
			return false
		}
		return p.Global("x").Init == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	lang.MustParse("not a program")
}

func TestTypeString(t *testing.T) {
	if lang.TypeInt.String() != "int" || lang.TypeBool.String() != "bool" || lang.TypePtr.String() != "ptr" {
		t.Fatal("type names wrong")
	}
}

// TestCheckRejectsOversizedArrays: declared array elements are bounded
// program-wide, so a hostile declaration is a typed error with the
// declaration's line instead of a huge allocation at run time. A size
// literal past int64 is a lexer error, so it cannot wrap to a negative
// size that lowers the running total.
func TestCheckRejectsOversizedArrays(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		phase string
		line  int
	}{
		{"one-huge", "program p;\nglobal int a[1000000000000000];\nfunc main() { a[0] = 1; }\n", "check", 2},
		{"int64-max", "program p;\nglobal int a[9223372036854775807];\nfunc main() { a[0] = 1; }\n", "check", 2},
		{"sum", "program p;\nglobal int a[65536];\nglobal int g;\nglobal int b[1];\nfunc main() { a[0] = 1; }\n", "check", 4},
		{"int64-max+1", "program p;\nglobal int a[9223372036854775808];\nfunc main() { a[0] = 1; }\n", "parse", 2},
		{"wrap-negative", "program p;\nglobal int z[18445744073709551616];\nglobal int a[1000000000000000];\nfunc main() { a[0] = 1; }\n", "parse", 2},
		{"wrap-initializer", "program p;\nglobal int g = 18446744073709551617;\nfunc main() { g = 1; }\n", "parse", 2},
	} {
		_, err := lang.Parse(tc.src)
		var le *lang.Error
		if !errors.As(err, &le) || le.Phase != tc.phase || le.Line != tc.line {
			t.Errorf("%s: err = %#v, want a %s error at line %d", tc.name, err, tc.phase, tc.line)
		}
	}
	atLimit := "program p;\nglobal int a[65535];\nglobal int b[1];\nglobal int g;\nfunc main() { a[0] = 1; g = 9223372036854775807; }\n"
	prog, err := lang.Parse(atLimit)
	if err != nil {
		t.Fatalf("arrays at the limit rejected: %v", err)
	}
	// A hand-built declaration with a negative size is refused too: it
	// would otherwise compile as a scalar and pay for the others.
	prog.Globals[0].ArraySize = -1_000_000_000_000_000
	prog.Globals[1].ArraySize = 1_000_000_000_000_000
	var le *lang.Error
	if err := lang.Check(prog); !errors.As(err, &le) || le.Phase != "check" || le.Line != 2 {
		t.Fatalf("negative array size: err = %#v, want a check error at line 2", err)
	}
}

// TestCheckBoundsFieldNames: the distinct field names a program spells
// are bounded program-wide, counting `new` lists, loads and stores in
// every function, so no object can grow wider than the bound. A
// repeated name counts once, and the name that crosses the bound is a
// typed check error at its line.
func TestCheckBoundsFieldNames(t *testing.T) {
	// names(n) lists f0 .. f(n-1).
	names := func(n int) string {
		var fs []string
		for i := 0; i < n; i++ {
			fs = append(fs, fmt.Sprintf("f%d", i))
		}
		return strings.Join(fs, ", ")
	}
	const max = lang.MaxFieldNames
	atLimit := fmt.Sprintf(`program p;
global ptr p;
global int g;
func helper() {
    p.x = p.y;
}
func main() {
    p = new(%s, %s);
    p.f0 = g;
    g = p.f1;
    helper();
}
`, names(max-2), names(max-2))
	if _, err := lang.Parse(atLimit); err != nil {
		t.Fatalf("field names at the limit rejected: %v", err)
	}
	for _, tc := range []struct {
		name, src string
		line      int
	}{
		{"new", fmt.Sprintf("program p;\nglobal ptr p;\nfunc main() {\n    p = new(%s, %s);\n}\n", names(max+1), names(max+1)), 4},
		{"store", fmt.Sprintf("program p;\nglobal ptr p;\nfunc main() {\n    p = new(%s);\n    p.f0 = 1;\n    p.x = 1;\n}\n", names(max)), 6},
		{"load", fmt.Sprintf("program p;\nglobal ptr p;\nglobal int g;\nfunc main() {\n    p = new(%s);\n    g = p.x;\n}\n", names(max)), 6},
		{"across functions", fmt.Sprintf("program p;\nglobal ptr p;\nfunc f() {\n    p.x = 1;\n}\nfunc main() {\n    p = new(%s);\n    f();\n}\n", names(max)), 7},
	} {
		_, err := lang.Parse(tc.src)
		var le *lang.Error
		if !errors.As(err, &le) || le.Phase != "check" || le.Line != tc.line ||
			!strings.Contains(le.Msg, "distinct field names") {
			t.Errorf("%s: err = %#v, want a check error at line %d", tc.name, err, tc.line)
		}
	}
}
