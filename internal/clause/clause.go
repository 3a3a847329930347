// Package clause owns the compact spec grammar behind the -faults,
// -chaos, -spec and -compress flags and the /v1/schedule and
// /v1/cluster bodies: it tokenizes clauses, reads typed values out of
// them with one error style, reports what the caller never read, and
// renders clauses back in the order they are written (Writer).
//
// A spec is clauses separated by ';'; outer spaces are dropped and
// empty clauses skipped. A clause is "key=value" or
// "name[@at][:params]", and the first of '=', '@' or ':' in it decides
// which. Params are ','-separated key=value pairs (and bare flags in
// the Flags dialect). A value that is itself a named clause (stream=,
// compress=) goes through Grammar.ParseOne, where '=' is no separator.
// Every token is a sub-slice of the input; no map is built.
package clause

import (
	"fmt"
	"strconv"
	"strings"
)

// Dialect is how a grammar reads the parts of a param list.
type Dialect uint8

const (
	// Strict parts are all key=value, with keys and values trimmed.
	Strict Dialect = iota
	// Lists parts are key=value, with keys and values trimmed, and a
	// part without '=' continues the previous value: "bank=7,9" is the
	// one value "7,9".
	Lists
	// Flags parts are key=value or bare flags ("poisson"), each read
	// exactly as written less outer spaces; empty parts are skipped.
	Flags
)

// A Grammar is one spec grammar: the name its errors start with and
// the dialect of its params.
type Grammar struct {
	Name   string
	Params Dialect
}

// Parse calls fn on each clause of spec in order, stopping at the
// first error. The clause is only valid during the call.
func (g Grammar) Parse(spec string, fn func(*Clause) error) error {
	c := new(Clause)
	for rest := spec; rest != ""; {
		var text string
		text, rest, _ = strings.Cut(rest, ";")
		if text = strings.TrimSpace(text); text == "" {
			continue
		}
		if err := c.parse(g, text, true); err != nil {
			return err
		}
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

// ParseOne parses s, as written, as one named clause.
func (g Grammar) ParseOne(s string) (*Clause, error) {
	c := new(Clause)
	return c, c.parse(g, s, false)
}

type param struct {
	key, val   string
	flag, read bool
}

// Clause is one parsed clause.
type Clause struct {
	Text       string // the clause as written, for errors
	Key, Value string // a key=value clause; Key is empty otherwise
	Name       string // a named clause

	g             Grammar
	at            string
	hasAt, atRead bool
	params        []param
	buf           [4]param
}

func (c *Clause) parse(g Grammar, text string, top bool) error {
	// Field by field: a struct literal would also zero buf.
	c.Text, c.Key, c.Value, c.Name, c.at = text, "", "", "", ""
	c.g, c.hasAt, c.atRead, c.params = g, false, false, c.buf[:0]
	if i := strings.IndexAny(text, "=@:"); top && i >= 0 && text[i] == '=' {
		c.Key, c.Value = text[:i], text[i+1:]
		c.params = append(c.params, param{key: c.Key, val: c.Value})
		return nil
	}
	head, list, _ := strings.Cut(text, ":")
	c.Name, c.at, c.hasAt = strings.Cut(head, "@")
	valStart := 0 // where the last Lists value starts in list
	for start := 0; list != "" && start <= len(list); {
		end := strings.IndexByte(list[start:], ',') + start
		if end < start {
			end = len(list)
		}
		part := list[start:end]
		start = end + 1
		if g.Params == Flags {
			part = strings.TrimSpace(part)
		}
		k, v, hasEq := strings.Cut(part, "=")
		switch {
		case g.Params == Flags && part == "":
		case g.Params == Flags && !hasEq:
			c.params = append(c.params, param{key: part, flag: true})
		case hasEq:
			valStart = end - len(v)
			if g.Params != Flags {
				k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			}
			if k == "" {
				return c.Errorf("parameter %q has no key", part)
			}
			c.params = append(c.params, param{key: k, val: v})
		case g.Params == Lists && len(c.params) > 0:
			c.params[len(c.params)-1].val = strings.TrimSpace(list[valStart:end])
		default:
			return c.Errorf("parameter %q is not key=value", part)
		}
	}
	return nil
}

// Errorf formats an error about the clause: `grammar: "clause": msg`.
func (c *Clause) Errorf(format string, args ...any) error {
	return fmt.Errorf("%s: %q: %s", c.g.Name, c.Text, fmt.Sprintf(format, args...))
}

// At returns the @ trigger and whether there is one, and marks it read.
func (c *Clause) At() (string, bool) {
	c.atRead = true
	return c.at, c.hasAt
}

// AtInt parses the @ trigger, if any, into dst.
func (c *Clause) AtInt(dst *int) error {
	if at, ok := c.At(); ok {
		n, err := strconv.Atoi(at)
		if err != nil {
			return c.Errorf("bad trigger: %v", err)
		}
		*dst = n
	}
	return nil
}

// Func calls set on each value of key in order, so the last value of
// a repeated key wins and every value must parse.
func (c *Clause) Func(key string, set func(v string) error) error {
	for i, p := range c.params {
		if p.flag || p.key != key {
			continue
		}
		c.params[i].read = true
		if err := set(p.val); err != nil {
			return c.Errorf("bad %s: %v", key, err)
		}
	}
	return nil
}

// Int reads key into dst if the clause has it.
func (c *Clause) Int(key string, dst *int) error {
	return c.Func(key, func(v string) (err error) { *dst, err = strconv.Atoi(v); return err })
}

// Int64 reads key into dst if the clause has it.
func (c *Clause) Int64(key string, dst *int64) error {
	return c.Func(key, func(v string) (err error) { *dst, err = strconv.ParseInt(v, 10, 64); return err })
}

// Float reads key into dst if the clause has it.
func (c *Clause) Float(key string, dst *float64) error {
	return c.Func(key, func(v string) (err error) { *dst, err = strconv.ParseFloat(v, 64); return err })
}

// Str reads key into dst if the clause has it.
func (c *Clause) Str(key string, dst *string) error {
	return c.Func(key, func(v string) error { *dst = v; return nil })
}

// Flag reports whether the clause carries the bare flag name.
func (c *Clause) Flag(name string) bool {
	found := false
	for i, p := range c.params {
		if p.flag && p.key == name {
			c.params[i].read, found = true, true
		}
	}
	return found
}

// Need reports a missing key.
func (c *Clause) Need(key string) error {
	for _, p := range c.params {
		if !p.flag && p.key == key {
			return nil
		}
	}
	return c.Errorf("needs %s=", key)
}

// Unread reports an @ trigger, param or flag no getter read: one the
// clause's kind does not take.
func (c *Clause) Unread() error {
	if c.hasAt && !c.atRead {
		return c.Errorf("%s takes no @ trigger", c.Name)
	}
	for _, p := range c.params {
		if !p.read {
			return c.Errorf("unknown parameter %q", p.key)
		}
	}
	return nil
}

// Each calls fn on every trimmed, sep-separated item of a list value
// ("7,9", "ifm+ofm").
func Each(list, sep string, fn func(item string) error) error {
	for more := true; more; {
		var item string
		item, list, more = strings.Cut(list, sep)
		if err := fn(strings.TrimSpace(item)); err != nil {
			return err
		}
	}
	return nil
}
