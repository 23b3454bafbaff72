package lang_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/statics"
)

// nestingShapes builds, for each recursive production, a program that
// nests it n times: parentheses, unary operators, index brackets,
// binary and field-access chains, nested blocks and else-if chains.
var nestingShapes = map[string]func(n int) string{
	"parens": func(n int) string {
		return "program p;\nglobal int x;\nfunc main() {\n  x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";\n}\n"
	},
	"unary": func(n int) string {
		return "program p;\nglobal int x;\nfunc main() {\n  x = " + strings.Repeat("-", n) + "1;\n}\n"
	},
	"index": func(n int) string {
		return "program p;\nglobal int a[4];\nfunc main() {\n  a[0] = " + strings.Repeat("a[", n) + "0" + strings.Repeat("]", n) + ";\n}\n"
	},
	"binary": func(n int) string {
		return "program p;\nglobal int x;\nfunc main() {\n  x = 1" + strings.Repeat(" + 1", n) + ";\n}\n"
	},
	"field": func(n int) string {
		return "program p;\nfunc main() {\n  var ptr p = new(f);\n  p.f = p" + strings.Repeat(".f", n) + ";\n}\n"
	},
	"blocks": func(n int) string {
		return "program p;\nglobal int x;\nfunc main() {\n" + strings.Repeat("  while (x < 1) {\n", n) + "  x = 1;\n" + strings.Repeat("  }\n", n) + "}\n"
	},
	"else-if": func(n int) string {
		var b strings.Builder
		b.WriteString("program p;\nglobal int x;\nfunc main() {\n  if (x == 0) { x = 1; }")
		for i := 1; i <= n; i++ {
			fmt.Fprintf(&b, " else if (x == %d) { x = 1; }", i)
		}
		b.WriteString("\n}\n")
		return b.String()
	},
}

// TestNestingDepthLimit: for every recursive production, the deepest
// program the parser accepts nests within a few levels of
// MaxNestingDepth (the function body and the statement around the
// construct take the rest) and still passes Check, ir.Compile and
// statics.Analyze; one level deeper is refused with a typed parse
// error at a source line.
func TestNestingDepthLimit(t *testing.T) {
	for name, shape := range nestingShapes {
		deepest := -1
		for n := lang.MaxNestingDepth; n >= lang.MaxNestingDepth-4; n-- {
			if _, err := lang.Parse(shape(n)); err == nil {
				deepest = n
				break
			}
		}
		if deepest < 0 {
			t.Fatalf("%s: nothing within 4 levels of the limit parses", name)
		}
		ast, err := lang.Parse(shape(deepest))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.Compile(ast, ir.Options{InstrumentLoops: true})
		if err != nil {
			t.Fatalf("%s at depth %d: compile: %v", name, deepest, err)
		}
		statics.Analyze(prog)

		_, err = lang.Parse(shape(deepest + 1))
		var le *lang.Error
		if !errors.As(err, &le) || le.Phase != "parse" || le.Line < 3 || !strings.Contains(le.Msg, "nesting deeper than") {
			t.Fatalf("%s at depth %d: err %v, want a parse *lang.Error about nesting with a line", name, deepest+1, err)
		}
	}
}

// TestDeepNestingIsRefusedNotFatal: 400,000 nested parentheses — the
// source that used to overflow the parser's stack, a fatal error no
// recover can contain — is a typed parse error.
func TestDeepNestingIsRefusedNotFatal(t *testing.T) {
	_, err := lang.Parse(nestingShapes["parens"](400_000))
	var le *lang.Error
	if !errors.As(err, &le) || le.Phase != "parse" {
		t.Fatalf("err %v, want a parse *lang.Error", err)
	}
}
