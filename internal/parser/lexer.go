package parser

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokAmp
	tokPipe
	tokAssign // :=
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return fmt.Sprintf("%q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\''
}

// lex tokenizes src, stripping '%' and '#' line comments.  It decodes
// src in place, so an identifier's text is a substring of src; columns
// count runes, an invalid byte counting as one.
func lex(src string) ([]token, error) { return lexInto(nil, src) }

// lexInto is lex appending to toks[:0]; on an error it returns what it
// appended so far, so that a caller recycling the slice keeps it.
func lexInto(toks []token, src string) ([]token, error) {
	if toks = toks[:0]; cap(toks) == 0 {
		// Generated queries run at about one token per two bytes; the
		// slice grows past two per three if it must.
		toks = make([]token, 0, 2*len(src)/3+2)
	}
	line, col := 1, 1
	for i := 0; i < len(src); {
		r, w := utf8.DecodeRuneInString(src[i:])
		t, n := token{line: line, col: col}, 1 // n: runes consumed
		switch {
		case r == '\n':
			line, col = line+1, 1
			i++
			continue
		case r == ' ' || r == '\t' || r == '\r':
		case r == '%' || r == '#':
			for n = 0; i+w < len(src) && src[i+w] != '\n'; n++ {
				_, rw := utf8.DecodeRuneInString(src[i+w:])
				w += rw
			}
			n++
		case r == '(':
			t.kind, t.text = tokLParen, "("
		case r == ')':
			t.kind, t.text = tokRParen, ")"
		case r == ',':
			t.kind, t.text = tokComma, ","
		case r == '.':
			t.kind, t.text = tokDot, "."
		case r == '&' || r == '∧':
			t.kind, t.text = tokAmp, "&"
		case r == '|' || r == '∨':
			t.kind, t.text = tokPipe, "|"
		case r == ':':
			if i+1 >= len(src) || src[i+1] != '=' {
				return toks, fmt.Errorf("parser: line %d col %d: unexpected ':'", line, col)
			}
			t.kind, t.text, w, n = tokAssign, ":=", 2, 2
		case isIdentStart(r):
			for i+w < len(src) {
				r, rw := utf8.DecodeRuneInString(src[i+w:])
				if !isIdentRune(r) {
					break
				}
				w, n = w+rw, n+1
			}
			t.kind, t.text = tokIdent, src[i:i+w]
		default:
			return toks, fmt.Errorf("parser: line %d col %d: unexpected character %q", line, col, string(r))
		}
		if t.kind != tokEOF { // whitespace and comments emit nothing
			toks = append(toks, t)
		}
		i, col = i+w, col+n
	}
	return append(toks, token{kind: tokEOF, line: line, col: col}), nil
}

// errorAt formats a parse error with position information.
func errorAt(t token, format string, args ...interface{}) error {
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("parser: line %d col %d: %s", t.line, t.col, msg)
}
