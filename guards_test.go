package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The guards keep each retired second mechanism of DESIGN.md's "one
// mechanism per job" decisions out of the module. Each row names the
// decision it keeps; each guard is one pattern matched, unanchored, against
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
		pattern: `buildParallel|walkSubtree|materializeParallelThreshold|projectParallelThreshold|leafUsage|pathOff|scoreGroupCOW|segOf|rebuildSeg|segTail|tailHolds|headVec|withValues|MaterializedSegments|recalc_phase_seconds|publishPass`,
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
		in:      nonTest("internal"),
		want:    1,
		fixture: "internal/experiments/fixture.go", src: `var c = &core.SiteConfig{Name: "a"}`,
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

// moduleFiles parses every Go file of the module once, for every test in
// this file.
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
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
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
