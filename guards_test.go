package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode"
)

// The guards keep each retired second mechanism of DESIGN.md's decision
// index out of the module. Each row names the decision it keeps; each guard is one pattern matched, unanchored, against
// the rendered form of one or more kinds of syntax node in a scope of files.
// Comments are never read. A guard holds when the scope has exactly want
// matches: 0 for a retired name, 1 for the one place a mechanism lives.
//
// A guard that fires names the file and line. Replaying the rows against an
// older commit needs only this file:
//
//	git archive <sha> | tar -x -C <dir>
//	cp guards_test.go <dir>/ && (cd <dir> && go test -run TestGuards .)
var guardRows = []struct {
	step   string
	guards []guard
}{
	{"One usage path", []guard{{
		// Usage travels from histogram to FCS as a sum at a reference
		// instant plus one scale (DESIGN "Decay family and the single usage
		// path"): the retired second path, the second writer of the
		// incremental sums and the lazily attached newest-bin column.
		name:    "retired names",
		pattern: `diffTotals|fetchSources|WeightTable|accumStep|accumTable|maxTrackers|evictLRU|cursorTr|cursorTracker|recomputeTotal|newestEntry|indexNewest|allIndexed|noteNewest|dropNewest`,
		reads:   []nodeText{names},
		in:      nonTest("."),
		fixture: "internal/usage/fixture.go", src: `func (h *Histogram) noteNewest() {}`,
	}}},
	{"One policy tree", []guard{{
		// A site holds its policy once (DESIGN "A policy tree is immutable
		// once a PDS owns it").
		name:    "no copy in the PDS or FCS",
		pattern: `\.Clone\(\)`,
		reads:   []nodeText{calls},
		in:      nonTest("internal/services/pds", "internal/services/fcs"),
		fixture: "internal/services/fcs/fixture.go", src: `func f(p *policy.Tree) { p = p.Clone() }`,
	}, {
		name:    "no FCS policy cache",
		pattern: `lastPolicy|policyVer|havePolicyVer`,
		reads:   []nodeText{names},
		in:      nonTest("."),
		fixture: "internal/services/fcs/fixture.go", src: `type Service struct{ lastPolicy *policy.Tree }`,
	}, {
		name:    "no PDS version counter",
		pattern: `func \([a-z]* ?\*?Service\) Version\(`,
		reads:   []nodeText{methods},
		in:      nonTest("internal/services/pds"),
		fixture: "internal/services/pds/fixture.go", src: `func (*Service) Version() uint64 { return 0 }`,
	}}},
	{"One request path", []guard{{
		// Every request httpapi.Client sends goes out through Client.call
		// (DESIGN "One request path").
		name:    "one HTTP.Do",
		pattern: `\.HTTP\.Do\(`,
		reads:   []nodeText{calls},
		in:      nonTest("internal", "cmd"),
		want:    1,
		fixture: "cmd/aequusctl/fixture.go", src: `func f(c *httpapi.Client, r *http.Request) { c.HTTP.Do(r) }`,
	}, {
		name:    "no bare http.Post or http.Get",
		pattern: `(?i)http\.(Post|Get)\(|doNoRetry|callBinary`,
		reads:   []nodeText{names, calls},
		in:      nonTest("internal", "cmd"),
		fixture: "internal/libaequus/fixture.go", src: `func f(c *client) { c.HTTP.GET("/healthz") }`,
	}, {
		// Breaking is per peer in the USS; test files are read too.
		name:    "no breaker in ClientOptions",
		pattern: `ClientOptions( struct)? ?\{[^}]*Breaker`,
		reads:   []nodeText{typeSpecs, literals},
		in:      allGo("."),
		fixture: "internal/services/httpapi/fixture_test.go", src: `var o = httpapi.ClientOptions{Timeout: 1, Breaker: b}`,
	}}},
	{"One change log", []guard{{
		// The USS change cursor is the one change log; the UMS keeps one
		// generation behind it (DESIGN "UMS generations").
		name:    "retired names",
		pattern: `deltaGen|maxDeltaGens|deltaLog|awaitFlightLocked|materializeLocked|inflightErr`,
		reads:   []nodeText{names},
		in:      nonTest("."),
		fixture: "internal/services/ums/fixture.go", src: `func (s *Service) awaitFlightLocked() error { return nil }`,
	}}},
	{"One of each in the fairshare engine", []guard{{
		// The full build and the copy-on-write Apply give the same bits
		// because both call the same code (DESIGN "Bit-identity by shared
		// code"): one worker pool, one score expression, one index build.
		name:    "no worker pool beside par.For",
		pattern: `sync\.WaitGroup`,
		reads:   []nodeText{selectors},
		in:      nonTest("internal/fairshare", "internal/services/fcs"),
		fixture: "internal/fairshare/fixture.go", src: `func f() { var wg sync.WaitGroup; wg.Wait() }`,
	}, {
		name:    "one score expression",
		pattern: `k\*rel`,
		reads:   []nodeText{products},
		in:      nonTest("internal"),
		want:    1,
		fixture: "internal/services/fcs/fixture.go", src: `func f(k, rel, abs float64) float64 { return k * rel + (1-k)*abs }`,
	}, {
		// A refresh does no per-leaf work beyond the dirty paths (DESIGN
		// "Drift is measured when asked"): the drift pass has one caller,
		// the snapshot's sync.Once.
		name:    "one drift pass",
		pattern: `driftPass\(`,
		reads:   []nodeText{calls},
		in:      nonTest("internal/services/fcs"),
		want:    1,
		fixture: "internal/services/fcs/fixture.go", src: `func f(ix *fairshare.Index) { _, _, _ = driftPass(ix, DefaultDriftTopK) }`,
	}, {
		name:    "retired names",
		pattern: `buildParallel|walkSubtree|materializeParallelThreshold|projectParallelThreshold|leafUsage|pathOff|scoreGroupCOW|segOf|rebuildSeg|segTail|tailHolds|headVec|withValues|MaterializedSegments|recalc_phase_seconds|publishPass|initLayout|fillSegment|depthSum|segMeta`,
		reads:   []nodeText{names},
		in:      nonTest("internal"),
		fixture: "internal/services/fcs/fixture.go", src: `var h = reg.Histogram("aequus_fcs_recalc_phase_seconds", "", nil)`,
	}}},
	{"One record encoding", []guard{{
		// A usage record has one encoding, usage.Mutation in WAL frames, and
		// recovery is one Replay (DESIGN "A snapshot is a run of WAL frames").
		name:    "retired snapshot codec and adoption",
		pattern: `appendRecordBlock|readRecordBlock|encodeSnapshot|decodeSnapshot|readSnapString|\.Recovered\(\)`,
		reads:   []nodeText{names, calls},
		in:      nonTest("."),
		fixture: "internal/services/uss/fixture.go", src: `func f(d *durability.Store) { _ = d.Recovered() }`,
	}}},
	{"One simulation driver", []guard{{
		// Every simulated run goes through scenario.Run (DESIGN "One
		// simulation driver"): one submit host, one site-stack literal.
		// aequusd starts from core.Defaults (DESIGN "Defaults are written
		// once"), so the scenario's literal is the only one in internal/
		// and cmd/.
		name:    "one submit host",
		pattern: `grid\.NewSubmitHost\(`,
		reads:   []nodeText{calls},
		in:      nonTest("internal", "cmd"),
		want:    1,
		fixture: "cmd/testbed/fixture.go", src: `var h = grid.NewSubmitHost(k, sites, 1)`,
	}, {
		name:    "one site-stack literal",
		pattern: `core\.SiteConfig\{`,
		reads:   []nodeText{literals},
		in:      nonTest("internal", "cmd"),
		want:    1,
		fixture: "cmd/aequusd/fixture.go", src: `var c = core.SiteConfig{Name: "a"}`,
	}}},
	{"One fault layer", []guard{{
		// Faults are injected on the wire by faultinject.RoundTripper, and
		// the scenario's peer pulls cross httpapi (DESIGN "Fault
		// injection"): no uss.Peer wrapper, no in-process pull.
		name:    "retired names",
		pattern: `FaultyPeer|sitePeer`,
		reads:   []nodeText{names},
		in:      nonTest("."),
		fixture: "internal/faultinject/fixture.go", src: `type FaultyPeer struct{ Inj *Injector }`,
	}, {
		name:    "no in-process pull in the scenario",
		pattern: `\.RecordsSince\(`,
		reads:   []nodeText{calls},
		in:      nonTest("internal/scenario"),
		fixture: "internal/scenario/fixture.go", src: `func f(h *Harness, t time.Time) { h.Sites[0].USS.RecordsSince(nil, t) }`,
	}}},
	{"One miss path in libaequus", []guard{{
		// A fairshare lookup, one user's or a queue's, misses through one
		// batch fill (DESIGN "One miss path in libaequus"): no single-user
		// fetch with its own stale fallback and span, no uncalled queue
		// call-out, no report helper that truncated its duration.
		name:    "retired names",
		pattern: `staleFairshare|PrioritiesForLocalUsers|ReportJobErr|lib\.fairshare_fetch`,
		reads:   []nodeText{names},
		in:      nonTest("."),
		fixture: "internal/libaequus/fixture.go", src: `func (c *Client) f() { span.Start(ctx, "lib.fairshare_fetch") }`,
	}}},
	{"One request wrapper", []guard{{
		// Every instrumented route is one httpapi route value, and a
		// request's ID rides in its span context (DESIGN "One request
		// wrapper"): no middleware or client-metrics bundle in telemetry, no
		// second request-ID key, no error counter derived from the requests.
		name:    "retired names",
		pattern: `HTTPMetrics|ClientMetrics|WithRequestID|aequus_http_request_errors_total|\bInstrument\(`,
		reads:   []nodeText{names, calls},
		in:      nonTest("."),
		fixture: "internal/telemetry/fixture.go", src: `func f(m *HTTPMetrics, h http.Handler) http.Handler { return m.Instrument("/x", h) }`,
	}}},
	{"One mechanism per job", []guard{{
		// One test of fit, one phase detector, one identity fallback and one
		// way for a job's usage into the USS (DESIGN "One mechanism per
		// job"): the deleted second implementations and settable values.
		name:    "deleted names",
		pattern: `ReadSWF|AndersonDarling|ChiSquare|KolmogorovSmirnovTwoSample|Changepoints|SchemeTable|UsageWindow|CombinedOrdering|irsAdapter|ussAdapter|FairshareOnly|HalfOpenProbes|SeedJitter|MaxQueueTime|DefaultMultiplier|DefaultJitter|rm\.fairshare_callout`,
		reads:   []nodeText{names},
		in:      nonTest("."),
		fixture: "internal/slurm/fixture.go", src: `func f(r *span.Recorder) { r.Start("rm.fairshare_callout") }`,
	}, {
		// A single report is a one-job MutLocalBatch.
		name:    "no MutLocalAdd writer",
		pattern: `Kind: *(usage\.)?MutLocalAdd\b`,
		reads:   []nodeText{keyValues},
		in:      nonTest("."),
		fixture: "internal/services/uss/fixture.go", src: `var m = usage.Mutation{Kind: usage.MutLocalAdd}`,
	}, {
		// aequusd never calls Site.Lib, so a libaequus setting there
		// configures nothing; test files are read too.
		name:    "no Site.Lib setting in aequusd",
		pattern: `Lib(CacheTTL|Retry|StaleIfError)`,
		reads:   []nodeText{names},
		in:      func(p string) bool { return path.Dir(p) == "cmd/aequusd" },
		fixture: "cmd/aequusd/fixture_test.go", src: `func f(c *core.SiteConfig) { c.LibCacheTTL = 0 }`,
	}}},
}

// A guard is one pattern of a row: see guardRows.
type guard struct {
	name    string
	pattern string
	reads   []nodeText
	in      func(path string) bool
	want    int
	// fixture is a file in the guard's scope whose source (src, after a
	// package clause) must trip the guard.
	fixture, src string
}

// A nodeText gives the text a pattern is matched against for the nodes of
// one kind, and "" for every other node.
type nodeText func(ast.Node) string

// names renders identifiers, selector names included, and the values of
// string literals, which hold span and metric names.
func names(n ast.Node) string {
	switch n := n.(type) {
	case *ast.Ident:
		return n.Name
	case *ast.BasicLit:
		if n.Kind == token.STRING {
			s, _ := strconv.Unquote(n.Value)
			return s
		}
	}
	return ""
}

// calls renders a call as its callee and an open parenthesis, closed when
// it passes no argument: "c.HTTP.Do(", "t.Clone()".
func calls(n ast.Node) string {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return ""
	}
	if len(c.Args) == 0 {
		return types.ExprString(c.Fun) + "()"
	}
	return types.ExprString(c.Fun) + "("
}

// products renders a product with no space around its operator, however
// the source spaces it: "k*rel".
func products(n ast.Node) string {
	if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.MUL {
		return types.ExprString(b.X) + "*" + types.ExprString(b.Y)
	}
	return ""
}

// selectors renders a qualified name or field selection: "sync.WaitGroup".
func selectors(n ast.Node) string {
	if s, ok := n.(*ast.SelectorExpr); ok {
		return types.ExprString(s)
	}
	return ""
}

// literals renders a composite literal that names its type, with its
// elements: "httpapi.ClientOptions{Timeout: t, Breaker: b}".
func literals(n ast.Node) string {
	c, ok := n.(*ast.CompositeLit)
	if !ok || c.Type == nil {
		return ""
	}
	elts := make([]string, len(c.Elts))
	for i, e := range c.Elts {
		elts[i] = exprText(e)
	}
	return types.ExprString(c.Type) + "{" + strings.Join(elts, ", ") + "}"
}

// keyValues renders a key-value pair of a composite literal: "Kind: x".
func keyValues(n ast.Node) string {
	if kv, ok := n.(*ast.KeyValueExpr); ok {
		return exprText(kv)
	}
	return ""
}

// exprText is types.ExprString, which has no case for a key-value pair.
func exprText(e ast.Expr) string {
	if kv, ok := e.(*ast.KeyValueExpr); ok {
		return types.ExprString(kv.Key) + ": " + types.ExprString(kv.Value)
	}
	return types.ExprString(e)
}

// methods renders a method's signature up to its parameters:
// "func (s *Service) Version(".
func methods(n ast.Node) string {
	d, ok := n.(*ast.FuncDecl)
	if !ok || d.Recv == nil || len(d.Recv.List) != 1 {
		return ""
	}
	r := d.Recv.List[0]
	recv := types.ExprString(r.Type)
	if len(r.Names) == 1 {
		recv = r.Names[0].Name + " " + recv
	}
	return "func (" + recv + ") " + d.Name.Name + "("
}

// typeSpecs renders a type declaration with its definition:
// "ClientOptions struct{Timeout time.Duration; Breaker *Breaker}".
func typeSpecs(n ast.Node) string {
	if s, ok := n.(*ast.TypeSpec); ok {
		return s.Name.Name + " " + types.ExprString(s.Type)
	}
	return ""
}

// nonTest reads the non-test Go files under dirs ("." is the module).
func nonTest(dirs ...string) func(string) bool {
	in := allGo(dirs...)
	return func(p string) bool { return !strings.HasSuffix(p, "_test.go") && in(p) }
}

// allGo reads every Go file under dirs, test files included.
func allGo(dirs ...string) func(string) bool {
	return func(p string) bool {
		for _, d := range dirs {
			if d == "." || strings.HasPrefix(p, d+"/") {
				return true
			}
		}
		return false
	}
}

// A goFile is a parsed file under its slash-separated module-relative path.
type goFile struct {
	path string
	file *ast.File
}

var (
	fset        = token.NewFileSet()
	parseOnce   sync.Once
	parsedFiles []goFile
	parseErr    error
)

// moduleFiles parses every Go file of the module once, comments included,
// for every test in this file.
func moduleFiles(t *testing.T) []goFile {
	t.Helper()
	parseOnce.Do(func() {
		parseErr = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == ".git" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(p, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution|parser.ParseComments)
			if err != nil {
				return err
			}
			parsedFiles = append(parsedFiles, goFile{filepath.ToSlash(p), f})
			return nil
		})
	})
	if parseErr != nil {
		t.Fatal(parseErr)
	}
	return parsedFiles
}

// find lists the matches of g in the files of its scope, as "file:line: text".
func (g guard) find(files []goFile) []string {
	re := regexp.MustCompile(g.pattern)
	var hits []string
	for _, f := range files {
		if !g.in(f.path) {
			continue
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			for _, r := range g.reads {
				if s := r(n); s != "" && re.MatchString(s) {
					hits = append(hits, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), s))
				}
			}
			return true
		})
	}
	return hits
}

func TestGuards(t *testing.T) {
	files := moduleFiles(t)
	for _, row := range guardRows {
		t.Run(row.step, func(t *testing.T) {
			for _, g := range row.guards {
				t.Run(g.name, func(t *testing.T) {
					if hits := g.find(files); len(hits) != g.want {
						t.Errorf("%d matches of %q, want %d:\n%s", len(hits), g.pattern, g.want, strings.Join(hits, "\n"))
					}
					f, err := parser.ParseFile(fset, g.fixture, "package fixture\n"+g.src, parser.SkipObjectResolution)
					if err != nil {
						t.Fatal(err)
					}
					if hits := g.find([]goFile{{g.fixture, f}}); len(hits) == 0 {
						t.Errorf("fixture %s does not trip the guard: %s", g.fixture, g.src)
					}
				})
			}
		})
	}
	t.Run("Docs name live code", func(t *testing.T) { docsNameLiveCode(t, files) })
	t.Run("CI selects live tests", func(t *testing.T) { ciSelectsLiveTests(t, files) })
}

// ciSelectsLiveTests is the "CI selects live tests" row of TestGuards: in
// every go test command of the CI workflow, each alternative of the -run
// pattern (but ^$, which selects nothing on purpose) matches a Test, Fuzz or
// Example function of the command's packages, and the -fuzz pattern a Fuzz
// function. Without it a renamed test drops out of its gauntlet silently.
func ciSelectsLiveTests(t *testing.T, files []goFile) {
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	tests := testFuncs(files)
	if dead := deadSelections(string(workflow), tests); len(dead) != 0 {
		t.Errorf("%d selections match no test:\n%s", len(dead), strings.Join(dead, "\n"))
	}
	const fixture = "run: |\n  go test ./internal/fairshare -run 'Recalc|PathReachesLeaf' \\\n    -race\n" +
		"  go test ./internal/usage -run '^$' -fuzz FuzzNoSuchTarget -fuzztime 10s\n"
	if dead := deadSelections(fixture, tests); len(dead) != 2 {
		t.Errorf("the fixture trips the check %d times, want 2 (a -run alternative and a -fuzz target): %q", len(dead), dead)
	}
}

// testFuncs lists the Test, Fuzz and Example functions of every package
// directory ("" for the module root).
func testFuncs(files []goFile) map[string][]string {
	out := map[string][]string{}
	for _, f := range files {
		if !strings.HasSuffix(f.path, "_test.go") {
			continue
		}
		dir := path.Dir(f.path)
		if dir == "." {
			dir = ""
		}
		for _, d := range f.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Example"} {
				if strings.HasPrefix(fd.Name.Name, prefix) {
					out[dir] = append(out[dir], fd.Name.Name)
				}
			}
		}
	}
	return out
}

// deadSelections lists the -run alternatives and -fuzz patterns of the go
// test commands in a workflow's text that match no function of tests, each
// as "pattern (command)". YAML comments are skipped; a line ending in a
// backslash continues on the next.
func deadSelections(workflow string, tests map[string][]string) []string {
	var dead []string
	text := strings.ReplaceAll(workflow, "\\\n", " ")
	for _, line := range strings.Split(text, "\n") {
		at := strings.Index(line, "go test ")
		if at < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		var pkgs []string
		var run, fuzz string
		args := shellWords(line[at+len("go test "):])
		for i := 0; i < len(args); i++ {
			a := args[i]
			if a == "|" || a == "&&" || a == ";" {
				break
			}
			for _, flag := range []struct {
				name string
				into *string
			}{{"-run", &run}, {"-fuzz", &fuzz}} {
				switch {
				case a == flag.name && i+1 < len(args):
					i++
					*flag.into = args[i]
				case strings.HasPrefix(a, flag.name+"="):
					*flag.into = strings.TrimPrefix(a, flag.name+"=")
				}
			}
			if a == "." || strings.HasPrefix(a, "./") {
				pkgs = append(pkgs, a)
			}
		}
		var names, fuzzers []string
		for dir, fns := range tests {
			if selected(pkgs, dir) {
				names = append(names, fns...)
			}
		}
		for _, n := range names {
			if strings.HasPrefix(n, "Fuzz") {
				fuzzers = append(fuzzers, n)
			}
		}
		cmd := strings.TrimSpace(line[at:])
		// A -run pattern's first slash-separated element selects the
		// top-level tests; the rest select subtests.
		for _, alt := range alternatives(strings.SplitN(run, "/", 2)[0]) {
			if alt != "^$" && !anyMatch(alt, names) {
				dead = append(dead, fmt.Sprintf("-run %s (%s)", alt, cmd))
			}
		}
		if fuzz != "" && !anyMatch(fuzz, fuzzers) {
			dead = append(dead, fmt.Sprintf("-fuzz %s (%s)", fuzz, cmd))
		}
	}
	return dead
}

// selected reports whether a package pattern of a go test command
// ("./internal/x", "./internal/...", ".") names the package directory dir.
func selected(pkgs []string, dir string) bool {
	for _, p := range pkgs {
		p = strings.TrimPrefix(strings.TrimPrefix(p, "."), "/")
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			if rest == "" || dir+"/" == rest || strings.HasPrefix(dir, rest) {
				return true
			}
		} else if p == dir {
			return true
		}
	}
	return false
}

// alternatives splits a regular expression at its top-level bars.
func alternatives(re string) []string {
	if re == "" {
		return nil
	}
	var out []string
	depth, from := 0, 0
	for i, r := range re {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, re[from:i])
				from = i + 1
			}
		}
	}
	return append(out, re[from:])
}

// anyMatch reports whether the regular expression re compiles and matches
// one of names.
func anyMatch(re string, names []string) bool {
	r, err := regexp.Compile(re)
	if err != nil {
		return false
	}
	for _, n := range names {
		if r.MatchString(n) {
			return true
		}
	}
	return false
}

// shellWords splits a command line into words as a shell would for the
// quoting CI uses: blanks separate, and single or double quotes group.
func shellWords(line string) []string {
	var words []string
	var w strings.Builder
	quote, in := rune(0), false
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote, in = r, true
		case unicode.IsSpace(r):
			if in {
				words = append(words, w.String())
				w.Reset()
			}
			in = false
		default:
			w.WriteRune(r)
			in = true
		}
	}
	if in {
		words = append(words, w.String())
	}
	return words
}

// docChecks are the "Docs name live code" row of TestGuards: a name the
// documents give in backticks exists in the module, and a citation of a
// DESIGN title names one of its headings or bold paragraph leads, which
// include every decision index entry. A restore point (`git show
// <sha>:<path>`) names code that is gone on purpose and is not read.
var docChecks = []struct {
	name string
	// reads lists the documents checked; "*.go" is every Go comment.
	reads []string
	find  func(l *liveCode, d docText) []string
	// fixture is a document whose text (src) must trip the check; a .go
	// fixture is parsed and its comments read.
	fixture, src string
}{
	{"paths", []string{"DESIGN.md", "README.md"}, (*liveCode).deadPaths,
		"DESIGN.md", "its live deploy helper, `internal/loadgen`"},
	{"Go references", []string{"DESIGN.md", "README.md"}, (*liveCode).deadRefs,
		"README.md", "a leaf was a `fairshare.Node` and `USS.Watermarks()` listed"},
	{"title citations", []string{"README.md", ".claude/skills/verify/SKILL.md", "*.go"}, (*liveCode).deadCitations,
		"internal/core/fixture.go", "// See DESIGN \"No such\n// section\".\npackage fixture"},
}

// A docText is a document, or one Go comment, from the line it starts on.
type docText struct {
	where string
	line  int
	text  string
}

// docTexts reads one entry of a check's reads.
func docTexts(t *testing.T, name string, files []goFile) []docText {
	t.Helper()
	if name != "*.go" {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return []docText{{name, 1, string(b)}}
	}
	var out []docText
	for _, f := range files {
		for _, cg := range f.file.Comments {
			out = append(out, docText{f.path, fset.Position(cg.Pos()).Line, cg.Text()})
		}
	}
	return out
}

func docsNameLiveCode(t *testing.T, files []goFile) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	live := newLiveCode(files, string(design))
	for _, c := range docChecks {
		t.Run(c.name, func(t *testing.T) {
			var hits []string
			for _, r := range c.reads {
				for _, d := range docTexts(t, r, files) {
					hits = append(hits, c.find(live, d)...)
				}
			}
			if len(hits) != 0 {
				t.Errorf("%d names that are not live:\n%s", len(hits), strings.Join(hits, "\n"))
			}
			fixture := []docText{{c.fixture, 1, c.src}}
			if strings.HasSuffix(c.fixture, ".go") {
				f, err := parser.ParseFile(fset, c.fixture, c.src, parser.ParseComments)
				if err != nil {
					t.Fatal(err)
				}
				fixture = docTexts(t, "*.go", []goFile{{c.fixture, f}})
			}
			if len(c.find(live, fixture[0])) == 0 {
				t.Errorf("fixture %s does not trip the check: %s", c.fixture, c.src)
			}
		})
	}
}

// liveCode is what the module declares, as the doc checks look it up.
type liveCode struct {
	files   []string                   // every Go file's module-relative path
	decls   map[string]map[string]bool // package name → its top-level names
	members map[string]map[string]bool // "pkg.Type" → its fields and methods
	embeds  map[string][]string        // "pkg.Type" → the types it embeds
	types   map[string][]string        // type name → every "pkg.Type" so named
	fields  map[string][]string        // field name → the "pkg.Type" of each field so named
	imports map[string]bool            // names of packages from outside the module
	titles  map[string]bool            // DESIGN.md's headings and bold paragraph leads
}

var (
	designTitle = regexp.MustCompile(`^(?:#+ |(?:- )?\*\*)([^*]+)`)
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	goRef       = regexp.MustCompile(`^([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)
	citation    = regexp.MustCompile(`DESIGN(?:\.md's)?\s+"([^"]+)"`)
)

func newLiveCode(files []goFile, design string) *liveCode {
	l := &liveCode{
		decls: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		embeds: map[string][]string{}, types: map[string][]string{}, fields: map[string][]string{},
		imports: map[string]bool{}, titles: map[string]bool{},
	}
	add := func(m map[string]map[string]bool, k, name string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][name] = true
	}
	for _, f := range files {
		l.files = append(l.files, f.path)
		pkg := strings.TrimSuffix(f.file.Name.Name, "_test")
		for _, imp := range f.file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != "repro" && !strings.HasPrefix(p, "repro/") {
				l.imports[path.Base(p)] = true
			}
		}
		for _, d := range f.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fd.Recv == nil {
					add(l.decls, pkg, fd.Name.Name)
				} else if k := typeKey(pkg, fd.Recv.List[0].Type); k != "" {
					add(l.members, k, fd.Name.Name)
				}
				continue
			}
			for _, spec := range d.(*ast.GenDecl).Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						add(l.decls, pkg, n.Name)
					}
				case *ast.TypeSpec:
					add(l.decls, pkg, spec.Name.Name)
					k := pkg + "." + spec.Name.Name
					l.types[spec.Name.Name] = append(l.types[spec.Name.Name], k)
					var list *ast.FieldList
					switch st := spec.Type.(type) {
					case *ast.StructType:
						list = st.Fields
					case *ast.InterfaceType:
						list = st.Methods
					default:
						continue
					}
					for _, fl := range list.List {
						ft := typeKey(pkg, fl.Type)
						if len(fl.Names) == 0 && ft != "" {
							add(l.members, k, ft[strings.LastIndex(ft, ".")+1:])
							l.embeds[k] = append(l.embeds[k], ft)
						}
						for _, n := range fl.Names {
							add(l.members, k, n.Name)
							if ft != "" {
								l.fields[n.Name] = append(l.fields[n.Name], ft)
							}
						}
					}
				}
			}
		}
	}
	for _, line := range strings.Split(design, "\n") {
		if m := designTitle.FindStringSubmatch(line); m != nil {
			l.titles[strings.TrimSuffix(strings.Join(strings.Fields(m[1]), " "), ".")] = true
		}
	}
	return l
}

// typeKey names the type an expression denotes as "pkg.Type", through
// pointers and type arguments, and "" for any other expression.
func typeKey(pkg string, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return pkg + "." + e.Name
	case *ast.StarExpr:
		return typeKey(pkg, e.X)
	case *ast.IndexExpr:
		return typeKey(pkg, e.X)
	case *ast.IndexListExpr:
		return typeKey(pkg, e.X)
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return x.Name + "." + e.Sel.Name
		}
	}
	return ""
}

// hasMember reports whether a type of keys, or a type it embeds, has the
// field or method m.
func (l *liveCode) hasMember(keys []string, m string, depth int) bool {
	for _, k := range keys {
		if l.members[k][m] || depth < 3 && l.hasMember(l.embeds[k], m, depth+1) {
			return true
		}
	}
	return false
}

// spans lists each inline code span of a markdown text outside fenced
// blocks, its whitespace collapsed, with the line it starts on. A restore
// point is left out.
func spans(d docText) (lines []int, texts []string) {
	rows := strings.Split(d.text, "\n")
	fenced := false
	for i, r := range rows {
		fence := strings.HasPrefix(strings.TrimSpace(r), "```")
		fenced = fenced != fence
		if fence || fenced {
			rows[i] = ""
		}
	}
	text := strings.Join(rows, "\n")
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		s := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
		if strings.HasPrefix(s, "git ") {
			continue
		}
		lines = append(lines, d.line+strings.Count(text[:m[0]], "\n"))
		texts = append(texts, s)
	}
	return lines, texts
}

// deadPaths lists the backticked internal/…, cmd/… and .go paths that do
// not exist; a .go path may be given relative to any directory.
func (l *liveCode) deadPaths(d docText) []string {
	var hits []string
	lines, texts := spans(d)
	for i, s := range texts {
		for _, w := range strings.Fields(s) {
			w = strings.TrimPrefix(w, "./")
			if strings.ContainsAny(w, "{*<") || !strings.HasPrefix(w, "internal/") && !strings.HasPrefix(w, "cmd/") && !strings.HasSuffix(w, ".go") {
				continue
			}
			if _, err := os.Stat(w); err != nil && !l.hasGoFile(w) {
				hits = append(hits, fmt.Sprintf("%s:%d: %s", d.where, lines[i], w))
			}
		}
	}
	return hits
}

// hasGoFile reports whether the module has a Go file at path p relative to
// some directory of it.
func (l *liveCode) hasGoFile(p string) bool {
	for _, f := range l.files {
		if strings.HasSuffix("/"+f, "/"+p) {
			return true
		}
	}
	return false
}

// deadRefs lists the backticked pkg.Name, Type.Member and pkg.Type.Member
// references, with a capitalized last part, that name nothing the module
// declares. A first part that names a field stands for the field's type;
// a package from outside the module is not looked into.
func (l *liveCode) deadRefs(d docText) []string {
	var hits []string
	lines, texts := spans(d)
	for i, s := range texts {
		m := goRef.FindStringSubmatch(s)
		if m == nil {
			continue
		}
		a, b, c := m[1], m[2], m[3]
		last := b
		if c != "" {
			last = c
		}
		if !unicode.IsUpper(rune(last[0])) || l.resolves(a, b, c) {
			continue
		}
		hits = append(hits, fmt.Sprintf("%s:%d: %s", d.where, lines[i], s))
	}
	return hits
}

// resolves reports whether a.b, or a.b.c when c is set, names a declaration.
func (l *liveCode) resolves(a, b, c string) bool {
	if names, ok := l.decls[a]; ok {
		if c == "" {
			return names[b]
		}
		return l.hasMember([]string{a + "." + b}, c, 0)
	}
	if l.imports[a] {
		return true
	}
	owners := append(append([]string(nil), l.types[a]...), l.fields[a]...)
	if c == "" {
		return l.hasMember(owners, b, 0)
	}
	return l.hasMember(owners, b, 0) && l.hasMember(l.fields[b], c, 0)
}

// deadCitations lists the citations of a DESIGN title (the word DESIGN, or
// DESIGN.md's, then the title in double quotes), joined across lines, that
// name no DESIGN.md heading or index entry.
func (l *liveCode) deadCitations(d docText) []string {
	var hits []string
	for _, m := range citation.FindAllStringSubmatchIndex(d.text, -1) {
		title := strings.Join(strings.Fields(d.text[m[2]:m[3]]), " ")
		if !l.titles[title] {
			hits = append(hits, fmt.Sprintf("%s:%d: %q", d.where, d.line+strings.Count(d.text[:m[0]], "\n"), title))
		}
	}
	return hits
}

// TestMetricNameLint checks each metric name a non-test Go file of the
// module passes to Counter/Gauge/Histogram(Vec) against the project
// conventions:
//
//   - all names match ^aequus_[a-z0-9_]+$
//   - counters end in _total
//   - names mentioning a unit (_seconds, _bytes) end with that unit
//     (counters may append _total after it)
func TestMetricNameLint(t *testing.T) {
	callRE := regexp.MustCompile(`\.(Counter|Gauge|Histogram)(Vec)?\(\s*"([^"]+)"`)
	nameOK := regexp.MustCompile(`^aequus_[a-z0-9_]+$`)

	checked := 0
	for _, f := range moduleFiles(t) {
		if strings.HasSuffix(f.path, "_test.go") {
			continue
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok || len(c.Args) == 0 {
				return true
			}
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			m := callRE.FindStringSubmatch("." + sel.Sel.Name + "(" + types.ExprString(c.Args[0]))
			if m == nil {
				return true
			}
			kind, name := m[1], m[3]
			checked++
			if !nameOK.MatchString(name) {
				t.Errorf("%s: metric %q does not match ^aequus_[a-z0-9_]+$", f.path, name)
				return true
			}
			if kind == "Counter" && !strings.HasSuffix(name, "_total") {
				t.Errorf("%s: counter %q must end in _total", f.path, name)
			}
			if kind != "Counter" && strings.HasSuffix(name, "_total") {
				t.Errorf("%s: %s %q must not end in _total", f.path, strings.ToLower(kind), name)
			}
			base := strings.TrimSuffix(name, "_total")
			for _, unit := range []string{"_seconds", "_bytes", "_ratio"} {
				if strings.Contains(base, unit) && !strings.HasSuffix(base, unit) {
					t.Errorf("%s: metric %q mentions unit %q but does not end with it", f.path, name, unit)
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("namelint found no metric registrations — regex or walk root broken")
	}
	t.Logf("checked %d metric registrations", checked)
}
