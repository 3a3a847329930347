package clause_test

import (
	"shortcutmining/internal/chaos"
	"shortcutmining/internal/compress"
	"shortcutmining/internal/fault"
	"shortcutmining/internal/sched"
)

// spec is what every grammar's ParseSpec returns: a value that
// validates and renders back into its own grammar.
type spec interface {
	Validate() error
	String() string
}

// grammar is one spec grammar under test, reached only through its
// package's public ParseSpec.
type grammar struct {
	name  string
	parse func(string) (spec, error)
}

// grammars lists the four spec grammars in a fixed order (the fuzz
// target picks one by index).
var grammars = []grammar{
	{"fault", func(s string) (spec, error) { return nilIfErr(fault.ParseSpec(s)) }},
	{"chaos", func(s string) (spec, error) { return nilIfErr(chaos.ParseSpec(s)) }},
	{"sched", func(s string) (spec, error) { return nilIfErr(sched.ParseSpec(s)) }},
	{"compress", func(s string) (spec, error) { return nilIfErr(compress.ParseSpec(s)) }},
}

// nilIfErr drops the typed-nil pointer a failed parse returns, so a
// failed parse is a nil interface.
func nilIfErr[T spec](s T, err error) (spec, error) {
	if err != nil {
		return nil, err
	}
	return s, nil
}
