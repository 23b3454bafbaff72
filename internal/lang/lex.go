package lang

import (
	"fmt"
	"math"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokString
	tokPunct // operators and punctuation
	tokKeyword
)

var keywords = map[string]bool{
	"program": true, "global": true, "lock": true, "func": true,
	"var": true, "if": true, "else": true, "while": true, "for": true,
	"return": true, "acquire": true, "release": true, "spawn": true,
	"assert": true, "output": true, "goto": true, "break": true,
	"continue": true, "int": true, "bool": true, "ptr": true,
	"true": true, "false": true, "null": true, "new": true,
}

// token is a single lexical token.
type token struct {
	kind tokKind
	text string
	val  int64 // for tokInt
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer splits source text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// twoCharOps are the multi-character operators, checked before
// single-character punctuation.
var twoCharOps = []string{"==", "!=", "<=", ">=", "&&", "||", ".."}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	start, line := l.pos, l.line
	c := l.src[l.pos]

	if unicode.IsLetter(rune(c)) || c == '_' {
		for l.pos < len(l.src) && (isIdentChar(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{kind: kind, text: text, line: line}, nil
	}

	if unicode.IsDigit(rune(c)) {
		var v int64
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
			d := int64(l.src[l.pos] - '0')
			if v > (math.MaxInt64-d)/10 {
				return token{}, fmt.Errorf("line %d: integer literal exceeds %d", line, int64(math.MaxInt64))
			}
			v = v*10 + d
			l.pos++
		}
		// Reject forms like "12ab".
		if l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			return token{}, fmt.Errorf("line %d: malformed number %q", line, l.src[start:l.pos+1])
		}
		return token{kind: tokInt, text: l.src[start:l.pos], val: v, line: line}, nil
	}

	if c == '"' {
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\n' {
				return token{}, fmt.Errorf("line %d: unterminated string", line)
			}
			sb.WriteByte(l.src[l.pos])
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("line %d: unterminated string", line)
		}
		l.pos++
		return token{kind: tokString, text: sb.String(), line: line}, nil
	}

	for _, op := range twoCharOps {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.pos += 2
			return token{kind: tokPunct, text: op, line: line}, nil
		}
	}

	if strings.ContainsRune("+-*/%<>!=(){}[];,.:", rune(c)) {
		l.pos++
		return token{kind: tokPunct, text: string(c), line: line}, nil
	}

	return token{}, fmt.Errorf("line %d: unexpected character %q", line, string(c))
}

func isIdentChar(c byte) bool {
	return unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_'
}
