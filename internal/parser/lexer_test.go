package parser

import (
	"fmt"
	"strings"
	"testing"
)

// renderTokens lists src's tokens as kind, text and line:col ("id:" marks
// an identifier, "eof" the end), or lex's error.
func renderTokens(src string) string {
	toks, err := lex(src)
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch t.kind {
		case tokIdent:
			b.WriteString("id:")
		case tokEOF:
			b.WriteString("eof")
		}
		fmt.Fprintf(&b, "%s@%d:%d", t.text, t.line, t.col)
	}
	return b.String()
}

// multiByteInputs exercise the lexer where bytes and runes part: the
// Unicode connectives, identifiers, comments holding them, and errors
// after them (an invalid byte counts as one rune, as in a []rune
// conversion).  FuzzParseQuery seeds its corpus with them too.
var multiByteInputs = []struct{ src, want string }{
	{"q(x,y) := E(x,y) ∧ E(y,x)", "id:q@1:1 (@1:2 id:x@1:3 ,@1:4 id:y@1:5 )@1:6 :=@1:8 id:E@1:11 (@1:12 id:x@1:13 ,@1:14 id:y@1:15 )@1:16 &@1:18 id:E@1:20 (@1:21 id:y@1:22 ,@1:23 id:x@1:24 )@1:25 eof@1:26"},
	{"φ(x) := exists ü. R(x,ü) ∨ R(ü,x)", "id:φ@1:1 (@1:2 id:x@1:3 )@1:4 :=@1:6 id:exists@1:9 id:ü@1:16 .@1:17 id:R@1:19 (@1:20 id:x@1:21 ,@1:22 id:ü@1:23 )@1:24 |@1:26 id:R@1:28 (@1:29 id:ü@1:30 ,@1:31 id:x@1:32 )@1:33 eof@1:34"},
	{"q(é,世) := E(é,世) ∧\n  E(世,é) % comment ∧ ∨ é\n# another ∨ comment\n| E(é,é)", "id:q@1:1 (@1:2 id:é@1:3 ,@1:4 id:世@1:5 )@1:6 :=@1:8 id:E@1:11 (@1:12 id:é@1:13 ,@1:14 id:世@1:15 )@1:16 &@1:18 id:E@2:3 (@2:4 id:世@2:5 ,@2:6 id:é@2:7 )@2:8 |@4:1 id:E@4:3 (@4:4 id:é@4:5 ,@4:6 id:é@4:7 )@4:8 eof@4:9"},
	{"q(x) := E(x,x) ∧ E(x,x) @", "parser: line 1 col 25: unexpected character \"@\""},
	{"q(ü) :- E(ü,ü)", "parser: line 1 col 6: unexpected ':'"},
	{"世界(x) := E(x,x)\n∧ x’", "parser: line 2 col 4: unexpected character \"’\""},
	{"q(x) := E(x,\xffy)", "parser: line 1 col 13: unexpected character \"�\""},
	{"x'' ∧∧ y_1 ∨", "id:x''@1:1 &@1:5 &@1:6 id:y_1@1:8 |@1:12 eof@1:13"},
	{"E(a,b) % ∧ é", "id:E@1:1 (@1:2 id:a@1:3 ,@1:4 id:b@1:5 )@1:6 eof@1:13"},
	{"a\r\n\tb # é", "id:a@1:1 id:b@2:2 eof@2:7"},
	{"", "eof@1:1"},
	{"∧", "&@1:1 eof@1:2"},
	{"é:", "parser: line 1 col 2: unexpected ':'"},
}

// TestLexMultiByte pins token kinds, texts and positions, and the line and
// column of every lexer error, on multi-byte input; columns count runes.
func TestLexMultiByte(t *testing.T) {
	for _, tc := range multiByteInputs {
		if got := renderTokens(tc.src); got != tc.want {
			t.Errorf("lex(%q):\n got %s\nwant %s", tc.src, got, tc.want)
		}
	}
}

// TestParseErrorsAfterMultiByte: the parser's errors take their line and
// column from the tokens, so they count runes as well.
func TestParseErrorsAfterMultiByte(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"q(é) := E(é,é) ∧", "parser: line 1 col 17: expected atom, 'exists', 'true' or '('"},
		{"q(世) := E(世 世)", "parser: line 1 col 13: expected ')', got \"世\""},
		{"φ(x) :=\n  exists ü E(x,ü)", "parser: line 2 col 12: expected '.' after quantifier, got \"E\""},
		{"q(x) := E(x,x) ∨ ∨ E(x,x)", "parser: line 1 col 18: expected atom, 'exists', 'true' or '('"},
	} {
		if _, err := ParseQuery(tc.src); err == nil || err.Error() != tc.want {
			t.Errorf("ParseQuery(%q) = %v, want %s", tc.src, err, tc.want)
		}
	}
}
