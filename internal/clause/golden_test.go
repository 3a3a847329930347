package clause_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// grammarGoldenPath pins what every spec grammar makes of a fixed input
// set: its own test literals, the committed fuzz corpora and seeded
// random clause strings. Each line records one (grammar, input) pair as
// either an error or the parsed spec's JSON plus its rendering.
const grammarGoldenPath = "testdata/grammar_golden.json"

// goldenEntry is one line of the golden file.
type goldenEntry struct {
	Grammar string          `json:"grammar"`
	Input   string          `json:"input"`
	Error   bool            `json:"error,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	// JSONError records a parsed spec encoding/json cannot encode
	// (a NaN field), in place of Spec.
	JSONError string `json:"json_error,omitempty"`
	String    string `json:"string,omitempty"`
}

// record parses input with g and captures the outcome.
func record(g grammar, input string) goldenEntry {
	e := goldenEntry{Grammar: g.name, Input: input}
	s, err := g.parse(input)
	if err != nil {
		e.Error = true
		return e
	}
	if raw, err := json.Marshal(s); err != nil {
		e.JSONError = err.Error()
	} else {
		e.Spec = raw
	}
	e.String = s.String()
	return e
}

// encodeGolden renders entries one per line, so a diff names inputs.
func encodeGolden(t *testing.T, entries []goldenEntry) []byte {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		if i < len(entries)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// TestGrammarGolden pins every grammar's accept/reject decision, parsed
// spec and rendering against testdata/grammar_golden.json. Regenerate
// with SCM_UPDATE_GOLDEN=1 — but a refactor of the grammar code must
// leave the file byte-identical, and a deliberate grammar change must
// show up here as a reviewed list of flipped inputs.
func TestGrammarGolden(t *testing.T) {
	if os.Getenv("SCM_UPDATE_GOLDEN") != "" {
		var entries []goldenEntry
		for _, g := range grammars {
			for _, in := range goldenInputs(t, g.name) {
				entries = append(entries, record(g, in))
			}
		}
		if err := os.WriteFile(grammarGoldenPath, encodeGolden(t, entries), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", grammarGoldenPath, len(entries))
		return
	}
	raw, err := os.ReadFile(grammarGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with SCM_UPDATE_GOLDEN=1 to create): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	byName := map[string]grammar{}
	for _, g := range grammars {
		byName[g.name] = g
	}
	drift := 0
	for _, w := range want {
		g, ok := byName[w.Grammar]
		if !ok {
			t.Fatalf("golden names unknown grammar %q", w.Grammar)
		}
		got := record(g, w.Input)
		if got.Error != w.Error || got.String != w.String || got.JSONError != w.JSONError ||
			!bytes.Equal(got.Spec, w.Spec) {
			if drift++; drift <= 20 {
				t.Errorf("%s %q drifted:\n got  error=%v %s %q\n want error=%v %s %q",
					w.Grammar, w.Input, got.Error, got.Spec, got.String, w.Error, w.Spec, w.String)
			}
		}
	}
	if drift > 20 {
		t.Errorf("%d entries drifted in total", drift)
	}
}

// goldenInputs is the deduplicated input list for one grammar: the
// literals of all four grammars' tests (every grammar must cope with
// the others' syntax), the committed fuzz corpora, and seeded random
// clause strings in the grammar's own vocabulary.
func goldenInputs(t *testing.T, name string) []string {
	var in []string
	in = append(in, testLiterals...)
	for _, dir := range []string{
		"../fault/testdata/fuzz/FuzzParseSpec",
		"../compress/testdata/fuzz/FuzzCompressSpec",
	} {
		in = append(in, corpus(t, dir)...)
	}
	r := rand.New(rand.NewSource(int64(len(name)) * 7919))
	v := vocabs[name]
	for i := 0; i < randomPerGrammar; i++ {
		in = append(in, v.spec(r))
	}
	seen := map[string]bool{}
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// corpus reads the string inputs of a committed fuzz corpus directory.
func corpus(t *testing.T, dir string) []string {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if q, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				out = append(out, s)
			}
		}
	}
	return out
}

const randomPerGrammar = 2500

// vocab is one grammar's raw material for random clause strings: its
// key=value clauses, its named clauses with their triggers and
// parameters, and foreign keys and bare params none of them take. Every
// list splits into well-formed tokens and edge tokens (bad numbers,
// empty values, stray spaces, foreign syntax), and edges are drawn
// rarely enough that a spec of several clauses still has a fair chance
// of being accepted.
type vocab struct {
	clauses int      // most clauses per spec
	single  bool     // one clause, no ';' (compress)
	kv      []choice // key=value clauses
	nested  map[string]*vocab
	kinds   []kind   // named clauses
	names   []string // edge clause names
	foreign []choice // keys no kind takes
	flags   []string // bare params
}

// kind is one named clause: its @ triggers (none = rarely written) and
// its parameters, the one it needs first.
type kind struct {
	name   string
	ats    choice
	params []choice
}

type choice struct {
	key        string
	good, edge []string
}

func (c choice) draw(r *rand.Rand) string {
	if len(c.good)+len(c.edge) == 0 {
		return ""
	}
	if len(c.edge) > 0 && (len(c.good) == 0 || r.Intn(8) == 0) {
		return pick(r, c.edge)
	}
	return pick(r, c.good)
}

var (
	clauseSeps = []string{";", " ; ", ";;", "; "}
	paramSeps  = []string{",", ", ", " ,", ",,"}
	equals     = []string{" = ", "= ", " ="}
	intEdges   = []string{"-1", "x", "", "+3", "007", " 3", "1e3", "99999999999999999999"}
	probs      = choice{key: "p", good: []string{"0", "0.05", "0.1", "0.5", ".999999", "1e-3"},
		edge: []string{"1", "1.5", "-0.1", "nope", "", "NaN"}}
	oddClauses = []string{"bogus", "", "x=1", "@3", ":n=1", "seed", "seed:1", "seed@2", "=3"}
)

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

// odd returns usual, and now and then one of edges.
func odd(r *rand.Rand, usual string, edges []string) string {
	if r.Intn(15) == 0 {
		return pick(r, edges)
	}
	return usual
}

// spec draws one random spec string.
func (v *vocab) spec(r *rand.Rand) string {
	if v.single {
		s := v.named(r)
		if r.Intn(20) == 0 {
			s += ";" + v.named(r)
		}
		return s
	}
	var b strings.Builder
	if r.Intn(10) == 0 {
		b.WriteString(" ")
	}
	for i, n := 0, 1+r.Intn(v.clauses); i < n; i++ {
		if i > 0 {
			b.WriteString(odd(r, ";", clauseSeps))
		}
		b.WriteString(v.clause(r))
	}
	if r.Intn(10) == 0 {
		b.WriteString(pick(r, clauseSeps))
	}
	return b.String()
}

func (v *vocab) clause(r *rand.Rand) string {
	if r.Intn(40) == 0 {
		return pick(r, oddClauses)
	}
	if len(v.kv) > 0 && (len(v.kinds) == 0 || r.Intn(4) == 0) {
		c := v.kv[r.Intn(len(v.kv))]
		eq := odd(r, "=", equals)
		if sub, ok := v.nested[c.key]; ok {
			return c.key + eq + sub.named(r)
		}
		return c.key + eq + c.draw(r)
	}
	return v.named(r)
}

// named draws "name[@at][:params]".
func (v *vocab) named(r *rand.Rand) string {
	k := v.kinds[r.Intn(len(v.kinds))]
	var b strings.Builder
	b.WriteString(odd(r, k.name, v.names))
	if len(k.ats.good) > 0 && r.Intn(6) != 0 || r.Intn(20) == 0 {
		b.WriteString("@")
		b.WriteString(k.ats.draw(r))
	}
	if r.Intn(8) == 0 {
		return b.String()
	}
	b.WriteString(":")
	prev := choice{}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		if i > 0 {
			b.WriteString(odd(r, ",", paramSeps))
		}
		if len(v.flags) > 0 && r.Intn(12) == 0 {
			b.WriteString(pick(r, v.flags))
			continue
		}
		c := k.params[r.Intn(len(k.params))]
		switch {
		case i == 0 && r.Intn(5) != 0:
			c = k.params[0]
		case i > 0 && r.Intn(7) == 0:
			c = prev // repeated key
		case r.Intn(15) == 0:
			c = v.foreign[r.Intn(len(v.foreign))]
		}
		prev = c
		b.WriteString(c.key + odd(r, "=", equals) + c.draw(r))
	}
	return b.String()
}

var (
	compressShared = []choice{
		{"enc", []string{"0", "1", "2"}, []string{"-1", "x"}},
		{"dec", []string{"0", "1", "2"}, []string{"-1"}},
		{"classes", []string{"ifm", "ifm+ofm", "ifm+ofm+shortcut", "interchip", "spillw+spillr", "ofm+ifm+interchip"},
			[]string{"ifm+ifm", "weights", "", "ifm + ofm", "ifm,ofm"}},
	}
	compressVocab = &vocab{
		single: true,
		kinds: []kind{
			{name: "fixed", ats: choice{edge: []string{"3", ""}}, params: append([]choice{
				{"ratio", []string{"2", "1.5", "4"}, []string{"1", "0", "x", "1e300", "NaN", ""}}}, compressShared...)},
			{name: "zvc", ats: choice{edge: []string{"3"}}, params: append([]choice{
				{"sparsity", []string{"0.5", "0.55", "0", "0.6"}, []string{"1", "-0.1", "NaN"}},
				{"elem", []string{"1", "2", "4"}, []string{"0", "9", "0x2", "-1"}}}, compressShared...)},
		},
		names:   []string{"lz4", " zvc", "fixed ", "zvc=1", ""},
		foreign: []choice{{"bogus", nil, []string{"1"}}, {"ratio", []string{"2"}, nil}, {"elem", []string{"2"}, nil}},
		flags:   []string{"ratio", "", "x", "2"},
	}
)

var (
	bankParams = []choice{
		{"n", []string{"1", "2", "3"}, []string{"0", "-3", "x", "", "999999999", "3,4"}},
		{"bank", []string{"7", "7,9", "1,2,3", "0"}, []string{"-4", "7,,9", "7, 9", "x", ""}},
	}
	layers = choice{good: []string{"4", "0", "2", "10"}, edge: []string{"-1", "x", "", " 2", "checkpoint", "3@4"}}
	sites  = choice{good: []string{"checkpoint", "recover", "site"}, edge: []string{"", "5", " s", "a@b", "s "}}
)

var vocabs = map[string]*vocab{
	"fault": {
		clauses: 4,
		kv: []choice{
			{"seed", []string{"7", "42", "-1", "0"}, []string{"x", "", "0x41", " 5", "5@3", "5:1"}},
			{"x", nil, []string{"1"}},
		},
		kinds: []kind{
			{"bank-fail", layers, bankParams},
			{"bank-transient", layers, bankParams},
			{"dma-drop", choice{edge: []string{"5", ""}}, []choice{probs}},
			{"bw-degrade", layers, []choice{{"factor", []string{"0.5", "0.25", "1", ".5"}, []string{"0", "2", "x", "", "NaN"}}}},
		},
		names:   []string{"bogus", "", "bank-fail "},
		foreign: []choice{{"count", nil, []string{"3"}}, {"x", nil, []string{"1", "1,2"}}, {"n", []string{"2"}, nil}, probs},
		flags:   []string{"4", "", "poisson", "x"},
	},
	"chaos": {
		clauses: 4,
		kv: []choice{
			{"seed", []string{"7", "42", "-1"}, []string{"x", "", " 5"}},
			{"journal-io", nil, []string{"0.1"}},
		},
		kinds: []kind{
			{"journal-io", choice{edge: []string{"checkpoint", ""}}, []choice{probs}},
			{"slow-disk", choice{edge: []string{"3"}}, []choice{{"ms", []string{"5", "200", "1"}, []string{"0", "-1", "x", ""}}}},
			{"stall", choice{}, []choice{probs, {"ms", []string{"5", "200", "1"}, []string{"0", "-1", "x", ""}}}},
			{"crash", sites, []choice{{"n", []string{"1", "2", "3"}, intEdges}}},
		},
		names:   []string{"tornado", "crash ", ""},
		foreign: []choice{{"count", nil, []string{"3"}}, {"x", nil, []string{"1"}}, probs},
		flags:   []string{"p", "", "2"},
	},
	"sched": {
		clauses: 5,
		kv: []choice{
			{"seed", []string{"7", "42", "-1"}, []string{"x", "", " 5"}},
			{"policy", []string{"fcfs", "rr", "prio", "round-robin", "priority"}, []string{"lifo", ""}},
			{"quantum", []string{"4", "1", "0"}, []string{"-1", "x"}},
			{"maxresident", []string{"2", "0"}, []string{"-1", "x"}},
			{"chips", []string{"0", "1", "2", "3", "4"}, []string{"-1", "999", "two"}},
			{"topo", []string{"ring", "mesh", "all", "alltoall"}, []string{"torus", " ring", ""}},
			{"place", []string{"hash", "leastload", "affinity"}, []string{"random", ""}},
			{"linkgbps", []string{"8.5", "16", "1e2", "0"}, []string{"-4", "abc"}},
			{"hoplat", []string{"32", "0"}, []string{"-1", "x"}},
			{key: "compress"},
			{key: "stream"}, {key: "stream"}, {key: "stream"}, {key: "stream"}, {key: "stream"},
			{"turbo", nil, []string{"1"}},
		},
		nested: map[string]*vocab{"compress": compressVocab, "stream": {
			kinds: []kind{{name: "resnet34"}, {name: "squeezenet"}, {name: "squeezenet-bypass"},
				{name: "densechain"}, {name: "vgg16"}},
			names:   []string{"", "x@y", "a=b", " r "},
			foreign: []choice{{"wat", nil, []string{"1"}}},
			flags:   []string{"poisson", "poisson", "bogus", ""},
		}},
	},
	"compress": compressVocab,
}

func init() {
	streamParams := []choice{
		{"n", []string{"1", "2", "3", "4"}, []string{"0", "x", "-1", "9999999", " 2", ""}},
		{"gap", []string{"0", "1000", "300000", "2000000"}, []string{"-5", "x"}},
		{"start", []string{"0", "100", "50000"}, []string{"x"}},
		{"prio", []string{"0", "3", "5", "-2"}, []string{"x"}},
		{"banks", []string{"0", "10"}, []string{"-1"}},
		{"strategy", []string{"scm", "baseline", "fmreuse", "fm-reuse", "shortcut-mining"}, []string{"bogus", " scm"}},
		{"name", []string{"vip", "bg"}, []string{"", " vip", "a=b", "a@b"}},
	}
	kinds := vocabs["sched"].nested["stream"].kinds
	for i := range kinds {
		kinds[i].ats = choice{edge: []string{"2", ""}}
		kinds[i].params = streamParams
	}
}

// testLiterals are the string literals of the fault, chaos, sched and
// compress spec tests, frozen here so later test edits do not move the
// golden's input set.
var testLiterals = []string{
	// Inputs that name a key or an @ trigger their clause does not take.
	"bank-fail@4:count=3",
	"crash@checkpoint:count=3",
	"dma-drop@5:p=0.1",
	"journal-io@checkpoint:p=0.1",
	"",
	"   ",
	" fixed : ratio = 2 ",
	" seed=1 ; bank-fail@2:n=1 ; ",
	",",
	"ParsePolicy(sjf): want error",
	"RunError must unwrap to its cause",
	"affinity",
	"anywhere",
	"bad class",
	"bank 7",
	"bank 7 still owned",
	"bank-fail@-1:n=1",
	"bank-fail@2",
	"bank-fail@2:1,2",
	"bank-fail@2:=5",
	"bank-fail@2:bank=-4",
	"bank-fail@2:bank=1,2,3,4,5",
	"bank-fail@2:n=-3",
	"bank-fail@2:n=0",
	"bank-fail@2:n=1;;;",
	"bank-fail@2:n=999999999",
	"bank-fail@2:n=zero",
	"bank-fail@9:bank=7,9",
	"bank-fail@x:n=1",
	"bank-transient@6:n=2",
	"bogus",
	"bogus-clause",
	"boot",
	"bulk",
	"bulk stream was never preempted by the vip stream",
	"bw-degrade@10:factor=0.5",
	"bw-degrade@3",
	"bw-degrade@3:factor=0",
	"bw-degrade@3:factor=2",
	"canceled run: want error",
	"checkpoint",
	"chips=",
	"chips=-1;stream=vgg16:",
	"chips=2;hoplat=-1;stream=vgg16:",
	"chips=2;linkgbps=-4;stream=vgg16:",
	"chips=2;linkgbps=abc;stream=vgg16:",
	"chips=2;place=random;stream=vgg16:",
	"chips=2;stream=squeezenet:n=1",
	"chips=2;topo=torus;stream=vgg16:",
	"chips=999;stream=vgg16:",
	"chips=two;stream=vgg16:",
	"class subset ok",
	"conv1",
	"conv4",
	"crash:n=1",
	"crash@site:n=0",
	"crash@site:n=x",
	"densechain",
	"dma-drop",
	"dma-drop:p=-0.1",
	"dma-drop:p=0.05",
	"dma-drop:p=1.5",
	"dma-drop:p=nope",
	"dup class",
	"elsewhere",
	"fatal",
	"fixed",
	"fixed ok",
	"fixed ratio 0",
	"fixed ratio 1",
	"fixed:",
	"fixed:ratio",
	"fixed:ratio=1.5,enc=1,dec=1",
	"fixed:ratio=1e300",
	"fixed:ratio=2",
	"fixed:ratio=2,,",
	"fixed:ratio=2,bogus=1",
	"fixed:ratio=2,classes=ifm+ifm",
	"fixed:ratio=4,classes=interchip",
	"fixed:ratio=x",
	"journal-io",
	"journal-io:p",
	"journal-io:p=1.5",
	"lat p95",
	"lz4",
	"lz4:ratio=2",
	"mesh",
	"negative enc",
	"nil injector must be inert",
	"nil-spec injector must be inert",
	"outer",
	"over-bound layer not flagged",
	"oversized bank list must fail validation",
	"place=affinity;stream=vgg16:",
	"plain",
	"plain error must not convert to RunError",
	"policy=lifo;stream=vgg16:",
	"preemptive schedule reports zero tenancy traffic",
	"preempts",
	"quantum=-1;stream=vgg16:",
	"resnet34",
	"resnet34#2",
	"round-robin quantum=2 over 3 streams produced zero preemptions",
	"s",
	"sched.Run accepted a chips>1 spec; cluster owns those",
	"seed",
	"seed=-1;bank-fail@0:n=1",
	"seed=1",
	"seed=11;policy=rr;quantum=2;",
	"seed=11;policy=rr;quantum=2;stream=squeezenet-bypass:n=3,gap=100000;",
	"seed=11;policy=rr;quantum=2;stream=squeezenet-bypass:n=3,gap=100000;stream=densechain:n=4,gap=80000,poisson;",
	"seed=11;policy=rr;quantum=2;stream=squeezenet-bypass:n=3,gap=100000;stream=densechain:n=4,gap=80000,poisson;stream=squeezenet:n=2,start=50000",
	"seed=1;bank-fail@2:n=1;bank-transient@2:n=3;bw-degrade@3:factor=0.5;bank-fail@5:n=2",
	"seed=2;policy=rr;quantum=1;maxresident=2;",
	"seed=2;policy=rr;quantum=1;maxresident=2;stream=densechain:n=2;stream=squeezenet:n=2;stream=squeezenet-bypass:n=2",
	"seed=3;policy=fcfs;stream=densechain:n=4,gap=1000;stream=squeezenet:n=2,gap=1000",
	"seed=3;policy=rr;chips=4;topo=mesh;place=affinity;linkgbps=8.5;hoplat=32;",
	"seed=3;policy=rr;chips=4;topo=mesh;place=affinity;linkgbps=8.5;hoplat=32;stream=resnet34:n=2;stream=squeezenet:n=2",
	"seed=42",
	"seed=42;bank-transient@0:n=2",
	"seed=42;journal-io:p=0.1",
	"seed=42;policy=rr;quantum=4;maxresident=2;",
	"seed=42;policy=rr;quantum=4;maxresident=2;stream=resnet34:n=8,gap=2000000,poisson,prio=3,strategy=baseline,banks=10,start=100,name=vip;",
	"seed=42;policy=rr;quantum=4;maxresident=2;stream=resnet34:n=8,gap=2000000,poisson,prio=3,strategy=baseline,banks=10,start=100,name=vip;stream=squeezenet:n=2",
	"seed=5;dma-drop:p=0.3;bank-fail@2:n=2;bw-degrade@4:factor=0.5",
	"seed=5;policy=prio;",
	"seed=5;policy=prio;stream=resnet18:n=1,name=bulk;",
	"seed=5;policy=prio;stream=resnet18:n=1,name=bulk;stream=densechain:n=2,gap=200000,start=100000,prio=5,name=vip",
	"seed=7; bank-fail@4:n=3; bank-fail@9:bank=7,9; bank-transient@6:n=2; dma-drop:p=0.05; bw-degrade@10:factor=0.5",
	"seed=7;bank-fail@4:n=3",
	"seed=7;bank-fail@4:n=3;dma-drop:p=0.02;bw-degrade@10:factor=0.5",
	"seed=7;dma-drop:p=0.05;bank-fail@4:n=3;bank-fail@9:bank=7,9;bw-degrade@10:factor=0.5",
	"seed=7;journal-io:p=0.25;slow-disk:ms=5;stall:p=0.05,ms=200;crash@recover:n=1;crash@checkpoint:n=3",
	"seed=7;policy=prio;maxresident=3;",
	"seed=7;policy=prio;maxresident=3;stream=resnet34:n=4,gap=1000000;",
	"seed=7;policy=prio;maxresident=3;stream=resnet34:n=4,gap=1000000;stream=squeezenet:n=6,gap=300000,poisson,prio=2,strategy=fmreuse,name=bg",
	"seed=9;bank-fail@3:n=2;dma-drop:p=0.1;bw-degrade@5:factor=0.25",
	"seed=9;policy=fcfs;stream=densechain:n=3,banks=1000;stream=squeezenet:n=2",
	"seed=abc",
	"sjf",
	"slow-disk:ms=-1",
	"squeezenet",
	"squeezenet-bypass",
	"stall:p=0.5",
	"stall:p=0.5,ms=0",
	"stream",
	"stream=:n=2",
	"stream=densechain:n=2,gap=200000,start=100000,prio=5,name=vip",
	"stream=densechain:n=2;stream=squeezenet:n=2;stream=squeezenet-bypass:n=2",
	"stream=densechain:n=4,gap=80000,poisson;",
	"stream=resnet18:n=1,name=bulk;",
	"stream=resnet34:n=2;stream=squeezenet:n=2",
	"stream=resnet34:n=4,gap=1000000;",
	"stream=resnet34:n=8,gap=2000000,poisson,prio=3,strategy=baseline,banks=10,start=100,name=vip;",
	"stream=squeezenet-bypass:n=3,gap=100000;",
	"stream=squeezenet:n=2",
	"stream=squeezenet:n=2,start=50000",
	"stream=squeezenet:n=6,gap=300000,poisson,prio=2,strategy=fmreuse,name=bg",
	"stream=vgg16:bogus",
	"stream=vgg16:n=0",
	"stream=vgg16:n=1",
	"stream=vgg16:n=9999999",
	"stream=vgg16:n=x",
	"stream=vgg16:wat=1",
	"sync",
	"topo=ring;stream=vgg16:",
	"tornado:p=0.1",
	"turbo=1;stream=vgg16:",
	"unknown codec",
	"unknown kind must fail validation",
	"vgg16",
	"vip",
	"weight class",
	"write",
	"zvc",
	"zvc negative sparsity",
	"zvc ok",
	"zvc sparsity 1",
	"zvc wide elem",
	"zvc zero sparsity",
	"zvc:classes=",
	"zvc:classes=ifm+weights",
	"zvc:classes=weights",
	"zvc:elem=0x2",
	"zvc:sparsity=0.5,classes=ifm+ofm+shortcut+spillw+spillr+interchip",
	"zvc:sparsity=0.5,elem=9",
	"zvc:sparsity=0.55",
	"zvc:sparsity=0.55,elem=2,enc=2,dec=2",
	"zvc:sparsity=0.6,classes=ifm+ofm+shortcut",
	"zvc:sparsity=0.6,elem=2,enc=2,dec=2",
	"zvc:sparsity=1",
	"zvc:sparsity=NaN",
}
