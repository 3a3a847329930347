package clause_test

import "testing"

// FuzzClauseGrammars drives all four spec grammars through one target:
// the first input byte picks the grammar, the rest is its spec. Sched
// specs arrive as untrusted /v1/schedule and /v1/cluster bodies, so
// beyond never panicking, an accepted spec must validate, its String
// must parse again, and re-rendering must be byte-stable.
func FuzzClauseGrammars(f *testing.F) {
	for i := range grammars {
		for _, s := range testLiterals {
			f.Add(string(rune(i)) + s)
		}
	}
	f.Fuzz(func(t *testing.T, input string) {
		if input == "" {
			return
		}
		g := grammars[int(input[0])%len(grammars)]
		spec, err := g.parse(input[1:])
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s %q: accepted spec fails Validate: %v", g.name, input[1:], err)
		}
		printed := spec.String()
		again, err := g.parse(printed)
		if err != nil {
			t.Fatalf("%s %q: rendering %q does not parse: %v", g.name, input[1:], printed, err)
		}
		if again.String() != printed {
			t.Errorf("%s %q: rendering unstable: %q -> %q", g.name, input[1:], printed, again.String())
		}
	})
}
