package structure

import (
	"fmt"
	"io"
	"regexp"
	"strings"
)

var plainName = regexp.MustCompile(`^[\pL\pN_][\pL\pN_']*$`)

// WriteFacts serializes the structure in the fact-file syntax the parser
// accepts: a `universe` declaration (so isolated elements survive a round
// trip) followed by one fact per line.  Element names must be plain
// identifiers (letters, digits, underscore, prime); names produced by the
// structure algebra (products, padding) may not be, in which case the
// caller should RenameElems first — the error says so.
func (s *Structure) WriteFacts(w io.Writer) error {
	for _, name := range s.elems {
		if !plainName.MatchString(name) {
			return fmt.Errorf("structure: element %q is not serializable; rename elements first", name)
		}
	}
	if _, err := fmt.Fprintf(w, "universe %s.\n", strings.Join(s.elems, ", ")); err != nil {
		return err
	}
	for _, r := range s.sig.rels {
		var werr error
		names := make([]string, r.Arity)
		s.ForEachTuple(r.Name, func(t []int) bool {
			for i, v := range t {
				names[i] = s.elems[v]
			}
			_, werr = fmt.Fprintf(w, "%s(%s).\n", r.Name, strings.Join(names, ","))
			return werr == nil
		})
		if werr != nil {
			return werr
		}
	}
	return nil
}

// FactsString returns the WriteFacts serialization as a string.
func (s *Structure) FactsString() (string, error) {
	var b strings.Builder
	if err := s.WriteFacts(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}
