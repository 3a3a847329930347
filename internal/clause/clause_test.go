package clause_test

import (
	"strings"
	"testing"

	"shortcutmining/internal/clause"
)

// TestDialects pins how each dialect reads the same param list.
func TestDialects(t *testing.T) {
	cases := []struct {
		d       clause.Dialect
		in      string
		bank, n string // values read; "" when absent
		flag    bool   // the bare flag x was seen
		err     string // substring of the parse or unread error
	}{
		{clause.Strict, "k:bank= 7 ,n=2", "7", "2", false, ""},
		{clause.Strict, "k:bank=7,9", "", "", false, `"9" is not key=value`},
		{clause.Lists, "k:bank=7, 9,n=2", "7, 9", "2", false, ""},
		{clause.Lists, "k:9,bank=7", "", "", false, `"9" is not key=value`},
		{clause.Flags, "k: x ,,bank=7", "7", "", true, ""},
		{clause.Flags, "k:n= 2", "", " 2", false, ""},
		{clause.Strict, "k:bank=7,m=1", "7", "", false, `unknown parameter "m"`},
		{clause.Strict, "k@3:bank=7", "7", "", false, "takes no @ trigger"},
	}
	for _, tc := range cases {
		g := clause.Grammar{Name: "test", Params: tc.d}
		c, err := g.ParseOne(tc.in)
		var bank, n string
		flag := false
		if err == nil {
			flag = c.Flag("x")
			err = c.Str("bank", &bank)
			if err == nil {
				err = c.Str("n", &n)
			}
			if err == nil {
				err = c.Unread()
			}
		}
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%d %q: error %v, want %q", tc.d, tc.in, err, tc.err)
			}
			continue
		}
		if err != nil || bank != tc.bank || n != tc.n || flag != tc.flag {
			t.Errorf("%d %q: bank=%q n=%q flag=%v err=%v; want %q %q %v",
				tc.d, tc.in, bank, n, flag, err, tc.bank, tc.n, tc.flag)
		}
	}
}

// TestRepeatedKey: every value of a repeated key must parse, and the
// last one wins.
func TestRepeatedKey(t *testing.T) {
	g := clause.Grammar{Name: "test", Params: clause.Strict}
	c, _ := g.ParseOne("k:n=1,n=2")
	n := 0
	if err := c.Int("n", &n); err != nil || n != 2 {
		t.Errorf("n=1,n=2 read %d, %v; want 2", n, err)
	}
	c, _ = g.ParseOne("k:n=x,n=2")
	if err := c.Int("n", &n); err == nil {
		t.Error("n=x,n=2 accepted; the first value must parse too")
	}
}

// TestWriterOrder: clauses and params render in the order written, with
// nested clauses after a key=value head.
func TestWriterOrder(t *testing.T) {
	var w clause.Writer
	w.Set("seed", 7).Clause("bank-fail").At(4).Param("bank", []int{7, 9}).
		Set("stream", "resnet34").Param("n", 2).ParamIf(false, "gap", 0).Param("poisson", nil).
		Clause("dma-drop").Param("p", 0.05)
	const want = "seed=7;bank-fail@4:bank=7,9;stream=resnet34:n=2,poisson;dma-drop:p=0.05"
	if got := w.String(); got != want {
		t.Errorf("rendered %q, want %q", got, want)
	}
}
