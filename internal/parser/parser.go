package parser

import (
	"fmt"
	"sync"

	"repro/internal/logic"
	"repro/internal/structure"
)

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) at(k tokenKind) bool {
	return p.toks[p.i].kind == k
}
func (p *parser) expect(k tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, errorAt(t, "expected %s, got %s", what, t)
	}
	return t, nil
}

// ParseQuery parses a query of the form
//
//	name(v1,...,vn) := formula
//
// or a bare formula (in which case the liberal variables are the free
// variables in lexicographic order and the query is named "q").
func ParseQuery(src string) (logic.Query, error) {
	pooled := queryTokens.Get().(*[]token)
	toks, err := lexInto(*pooled, src)
	var q logic.Query
	if err == nil {
		q, err = parseQuery(toks)
	}
	clear(toks) // the texts are substrings of src: let it go
	if cap(toks) <= maxPooledTokens {
		*pooled = toks[:0]
		queryTokens.Put(pooled)
	}
	return q, err
}

// queryTokens recycles ParseQuery's token slices, which hold no token
// past the parse: the formula keeps identifier texts, never tokens.  A
// slice grown past maxPooledTokens is left to the collector.
var queryTokens = sync.Pool{New: func() any { return new([]token) }}

const maxPooledTokens = 4096

// parseQuery is ParseQuery on src's tokens.
func parseQuery(toks []token) (logic.Query, error) {
	p := &parser{toks: toks}

	// Try the "name(vars) :=" header: ident '(' ... ')' ':='.
	if p.at(tokIdent) {
		save := p.i
		name := p.next().text
		if p.at(tokLParen) {
			p.next()
			var lib []logic.Var
			if !p.at(tokRParen) {
				for {
					t, err := p.expect(tokIdent, "variable")
					if err != nil {
						return logic.Query{}, err
					}
					lib = append(lib, logic.Var(t.text))
					if p.at(tokComma) {
						p.next()
						continue
					}
					break
				}
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return logic.Query{}, err
			}
			if p.at(tokAssign) {
				p.next()
				f, err := p.parseFormula()
				if err != nil {
					return logic.Query{}, err
				}
				if _, err := p.expect(tokEOF, "end of query"); err != nil {
					return logic.Query{}, err
				}
				return logic.NewQuery(name, lib, f)
			}
		}
		p.i = save // not a header; reparse as bare formula
	}
	f, err := p.parseFormula()
	if err != nil {
		return logic.Query{}, err
	}
	if _, err := p.expect(tokEOF, "end of query"); err != nil {
		return logic.Query{}, err
	}
	lib := logic.SortedVars(logic.FreeVars(f))
	return logic.NewQuery("q", lib, f)
}

// MustQuery is ParseQuery panicking on error (tests, examples).
func MustQuery(src string) logic.Query {
	q, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// parseFormula parses disjunctions (lowest precedence).
func (p *parser) parseFormula() (logic.Formula, error) {
	l, err := p.parseConj()
	if err != nil {
		return nil, err
	}
	for p.at(tokPipe) {
		p.next()
		r, err := p.parseConj()
		if err != nil {
			return nil, err
		}
		l = logic.Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseConj() (logic.Formula, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokAmp) {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = logic.And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (logic.Formula, error) {
	t := p.peek()
	switch {
	case t.kind == tokIdent && (t.text == "exists" || t.text == "ex"):
		p.next()
		var vs []logic.Var
		for {
			vt, err := p.expect(tokIdent, "quantified variable")
			if err != nil {
				return nil, err
			}
			vs = append(vs, logic.Var(vt.text))
			if p.at(tokComma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokDot, "'.' after quantifier"); err != nil {
			return nil, err
		}
		body, err := p.parseConj()
		if err != nil {
			return nil, err
		}
		// The quantifier body extends over conjunctions but not past '|'.
		return logic.Exist(vs, body), nil
	case t.kind == tokIdent && t.text == "true":
		p.next()
		return logic.Truth{}, nil
	case t.kind == tokIdent:
		p.next()
		if _, err := p.expect(tokLParen, "'(' after relation name"); err != nil {
			return nil, err
		}
		var args []logic.Var
		if !p.at(tokRParen) {
			for {
				at, err := p.expect(tokIdent, "argument variable")
				if err != nil {
					return nil, err
				}
				args = append(args, logic.Var(at.text))
				if p.at(tokComma) {
					p.next()
					continue
				}
				break
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if len(args) == 0 {
			return nil, errorAt(t, "relation %s needs at least one argument", t.text)
		}
		return logic.Atom{Rel: t.text, Args: args}, nil
	case t.kind == tokLParen:
		p.next()
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return f, nil
	default:
		return nil, errorAt(t, "expected atom, 'exists', 'true' or '('")
	}
}

// ParseStructure parses a fact file over the given signature (pass nil to
// infer relations and arities from the facts).  Grammar:
//
//	universe a, b, c.        % optional: declare (possibly isolated) elements
//	E(a,b). F(c). ...        % facts; '.' separators are optional
func ParseStructure(src string, sig *structure.Signature) (*structure.Structure, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}

	type fact struct {
		rel   string
		elems []string
		tok   token
	}
	var facts []fact
	var universe []string
	for !p.at(tokEOF) {
		t, err := p.expect(tokIdent, "relation name or 'universe'")
		if err != nil {
			return nil, err
		}
		if t.text == "universe" {
			for {
				et, err := p.expect(tokIdent, "element name")
				if err != nil {
					return nil, err
				}
				universe = append(universe, et.text)
				if p.at(tokComma) {
					p.next()
					continue
				}
				break
			}
			if p.at(tokDot) {
				p.next()
			}
			continue
		}
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		var elems []string
		for {
			et, err := p.expect(tokIdent, "element name")
			if err != nil {
				return nil, err
			}
			elems = append(elems, et.text)
			if p.at(tokComma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if p.at(tokDot) {
			p.next()
		}
		facts = append(facts, fact{rel: t.text, elems: elems, tok: t})
	}

	if sig == nil {
		arities := map[string]int{}
		for _, f := range facts {
			if prev, ok := arities[f.rel]; ok && prev != len(f.elems) {
				return nil, errorAt(f.tok, "relation %s used with arities %d and %d", f.rel, prev, len(f.elems))
			}
			arities[f.rel] = len(f.elems)
		}
		rels := make([]structure.RelSym, 0, len(arities))
		for name, ar := range arities {
			rels = append(rels, structure.RelSym{Name: name, Arity: ar})
		}
		sig, err = structure.NewSignature(rels...)
		if err != nil {
			return nil, err
		}
	}
	s := structure.New(sig)
	for _, e := range universe {
		s.EnsureElem(e)
	}
	for _, f := range facts {
		if err := s.AddFact(f.rel, f.elems...); err != nil {
			return nil, errorAt(f.tok, "%v", err)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("parser: %v", err)
	}
	return s, nil
}

// MustStructure is ParseStructure panicking on error.
func MustStructure(src string, sig *structure.Signature) *structure.Structure {
	s, err := ParseStructure(src, sig)
	if err != nil {
		panic(err)
	}
	return s
}
