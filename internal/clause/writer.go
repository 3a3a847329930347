package clause

import "fmt"

// Writer renders a spec in the order its clauses and params are
// written, so a spec's String is byte-stable: rendered specs become
// cache keys, codec labels and checkpoint fields. Values print as %v
// (floats in their shortest %g form) and an []int as a ',' list, which
// the Lists dialect reads back as one value. The zero Writer is an
// empty spec.
type Writer struct {
	b       []byte
	clauses int
	params  int // params written in the current clause
}

// Set starts a key=value clause. Params written after it follow a ':',
// rendering a nested named clause (stream=resnet34:n=2).
func (w *Writer) Set(key string, v any) *Writer {
	w.Clause(key)
	w.b = append(w.b, '=')
	w.value(v)
	return w
}

// SetIf is Set when cond holds.
func (w *Writer) SetIf(cond bool, key string, v any) *Writer {
	if cond {
		w.Set(key, v)
	}
	return w
}

// Clause starts a named clause.
func (w *Writer) Clause(name string) *Writer {
	if w.clauses > 0 {
		w.b = append(w.b, ';')
	}
	w.clauses++
	w.params = 0
	w.b = append(w.b, name...)
	return w
}

// At writes the current clause's @ trigger.
func (w *Writer) At(v any) *Writer {
	w.b = append(w.b, '@')
	w.value(v)
	return w
}

// Param writes the param key=v, or the bare flag key when v is nil.
func (w *Writer) Param(key string, v any) *Writer {
	if w.params == 0 {
		w.b = append(w.b, ':')
	} else {
		w.b = append(w.b, ',')
	}
	w.params++
	w.b = append(w.b, key...)
	if v != nil {
		w.b = append(w.b, '=')
		w.value(v)
	}
	return w
}

// ParamIf is Param when cond holds.
func (w *Writer) ParamIf(cond bool, key string, v any) *Writer {
	if cond {
		w.Param(key, v)
	}
	return w
}

func (w *Writer) value(v any) {
	list, ok := v.([]int)
	if !ok {
		w.b = fmt.Append(w.b, v)
		return
	}
	for i, x := range list {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.b = fmt.Append(w.b, x)
	}
}

// String returns the rendered spec.
func (w *Writer) String() string { return string(w.b) }
