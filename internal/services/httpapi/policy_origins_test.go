package httpapi

import (
	"bytes"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/services/fcs"
	"repro/internal/services/irs"
	"repro/internal/services/pds"
	"repro/internal/services/ums"
	"repro/internal/services/uss"
	"repro/internal/simclock"
	"repro/internal/usage"
)

// hostTransport serves each request in process with the handler of its
// URL's host, so PDS origins such as "http://national|/" stay the same
// from run to run.
type hostTransport map[string]http.Handler

func (h hostTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	srv, ok := h[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no host %q", req.URL.Host)
	}
	return recorderTransport{srv}.RoundTrip(req)
}

// get answers GET path on host with a 200, or fails tb.
func (h hostTransport) get(tb testing.TB, host, path string) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	h[host].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://"+host+path, nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s%s: %d %s", host, path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// nestedMount builds three PDS sites that reach each other through one
// hostTransport: "national" holds va 1 and vb 3; "regional" holds own 1
// and mounts national's root at /grid; "site" holds local 40 and mounts
// regional's root at /fed, so /fed/grid is a mount inside a mount.
func nestedMount(tb testing.TB) (hosts hostTransport, regional, site *pds.Service) {
	tb.Helper()
	hosts = hostTransport{}
	fetch := PolicyFetcher(&http.Client{Transport: hosts})
	serve := func(host string, shares map[string]float64) *pds.Service {
		pol, err := policy.FromShares(shares)
		if err != nil {
			tb.Fatal(err)
		}
		clock := simclock.NewSim(t0)
		p := pds.New(pol, fetch)
		u := uss.New(uss.Config{Site: host, Contribute: true, Clock: clock})
		m := ums.New(ums.Config{Clock: clock},
			ums.SourceFunc(func(now time.Time, d usage.Decay) (map[string]float64, error) {
				return u.GlobalTotals(now, d), nil
			}))
		hosts[host] = NewServer(p, u, m, fcs.New(fcs.Config{Clock: clock}, p, m), irs.New())
		return p
	}
	serve("national", map[string]float64{"va": 1, "vb": 3})
	regional = serve("regional", map[string]float64{"own": 1})
	site = serve("site", map[string]float64{"local": 40})
	if err := regional.Mount("", "grid", 2, "http://national|/"); err != nil {
		tb.Fatal(err)
	}
	if err := site.Mount("", "fed", 60, "http://regional|/"); err != nil {
		tb.Fatal(err)
	}
	return hosts, regional, site
}

// origins reads every node's origin of tr through Origin, by path.
func origins(tr *policy.Tree) map[string]string {
	out := map[string]string{}
	var walk func(n *policy.Node, path string)
	walk = func(n *policy.Node, path string) {
		if o := tr.Origin(path); o != "" {
			out[path] = o
		}
		for _, c := range n.Children {
			walk(c, strings.TrimSuffix(path, policy.Separator)+policy.Separator+c.Name)
		}
	}
	walk(tr.Root, policy.Separator)
	return out
}

// TestPolicyOriginsSurviveEveryPath: a mount's origin lives in its tree's
// table, keyed by path, and every path a tree takes keeps it — the JSON
// forms, GET /policy/subtree, Clone, Normalize, a refresh that changes a
// sibling and a mount under the mount point — for a mount nested inside
// another mount too. The two JSON answers are the bytes a build whose nodes
// carried their own origins served (testdata/policy_*nested_mount.json).
func TestPolicyOriginsSurviveEveryPath(t *testing.T) {
	hosts, regional, site := nestedMount(t)
	for _, fx := range []struct{ path, file string }{
		{"/policy", "policy_nested_mount.json"},
		{"/policy/subtree?path=/fed", "policy_subtree_nested_mount.json"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", fx.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := hosts.get(t, "site", fx.path); !bytes.Equal(got, want) {
			t.Errorf("GET %s:\n%s\nwant (%s):\n%s", fx.path, got, fx.file, want)
		}
	}

	want := map[string]string{"/fed": "http://regional|/", "/fed/grid": "http://national|/"}
	check := func(step string, tr *policy.Tree) {
		t.Helper()
		if got := origins(tr); !maps.Equal(got, want) {
			t.Errorf("after %s: origins %v, want %v", step, got, want)
		}
	}
	tr := site.Policy()
	check("the nested mount", tr)
	check("Clone", tr.Clone())
	check("Normalize", tr.Normalize())
	data, err := policy.ToJSON(tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := policy.FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	check("ToJSON → FromJSON", back)
	sub, err := NewClientWith("http://site", "site", ClientOptions{HTTP: &http.Client{Transport: hosts}}).Subtree("/fed")
	if err != nil {
		t.Fatal(err)
	}
	if got, w := origins(sub), map[string]string{"/": want["/fed"], "/grid": want["/fed/grid"]}; !maps.Equal(got, w) {
		t.Errorf("GET /policy/subtree?path=/fed: origins %v, want %v", got, w)
	}

	// An idle refresh keeps the tree; one that changes the nested mount's
	// sibling (regional's own 1 → 5) keeps every origin.
	if err := site.RefreshMounts(); err != nil || site.Policy() != tr {
		t.Fatalf("idle refresh: %v, tree replaced: %t", err, site.Policy() != tr)
	}
	data, err = policy.ToJSON(regional.Policy())
	if err != nil {
		t.Fatal(err)
	}
	changed, err := policy.FromJSON(bytes.Replace(data, []byte(`"name":"own","share":1`), []byte(`"name":"own","share":5`), 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := regional.SetPolicy(changed); err != nil {
		t.Fatal(err)
	}
	if err := site.RefreshMounts(); err != nil {
		t.Fatal(err)
	}
	if n, err := site.Policy().Lookup("/fed/own"); err != nil || n.Share != 5 {
		t.Fatalf("refresh: /fed/own = %+v, %v; want share 5", n, err)
	}
	check("a refresh that changes a sibling", site.Policy())

	if err := site.Mount("/fed", "extra", 1, "http://national|/"); err != nil {
		t.Fatal(err)
	}
	want["/fed/extra"] = "http://national|/"
	check("a Mount under the mount point", site.Policy())

	// A fetched subtree that differs from the mounted one only in a nested
	// origin is a change, not an idle refresh.
	tr = site.Policy()
	fed, err := tr.Subtree("/fed")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tr.RefreshMount("/fed", fed); err != nil || got != tr {
		t.Errorf("refresh with the mounted subtree = %p, %v; want the tree itself %p", got, err, tr)
	}
	data, err = policy.SubtreeToJSON(fed)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := policy.SubtreeFromJSON(bytes.Replace(data, []byte(`"mountedFrom":"http://national|/"}`), []byte(`"mountedFrom":"http://elsewhere|/"}`), 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.RefreshMount("/fed", moved)
	if err != nil {
		t.Fatal(err)
	}
	if got == tr {
		t.Fatal("a refresh whose only change is a nested origin was treated as idle")
	}
	if o := got.Origin("/fed/grid"); o != "http://elsewhere|/" {
		t.Errorf("after a refresh that moves /fed/grid: its origin is %q", o)
	}
}
