package repro

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestEndToEndBinaries builds the real executables and drives a two-site
// deployment over loopback HTTP: aequusd daemons exchange usage, aequusctl
// stores mappings, reports usage and queries fairshare — the full
// "integration" story of Section III without any test doubles.
func TestEndToEndBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("binary e2e skipped in -short mode")
	}
	dir := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, b)
		}
		return out
	}
	aequusd := build("aequusd")
	aequusctl := build("aequusctl")
	tracegen := build("tracegen")

	policyFile := filepath.Join(dir, "policy.txt")
	if err := os.WriteFile(policyFile, []byte("/alice 1\n/bob 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	portA, portB := freePort(t), freePort(t)
	urlA := fmt.Sprintf("http://127.0.0.1:%d", portA)
	urlB := fmt.Sprintf("http://127.0.0.1:%d", portB)

	startDaemon := func(site string, port int, peer string) *exec.Cmd {
		cmd := exec.Command(aequusd,
			"-site", site,
			"-listen", fmt.Sprintf("127.0.0.1:%d", port),
			"-policy", policyFile,
			"-peers", peer,
			"-exchange-interval", "200ms",
			"-refresh-interval", "200ms",
			"-bin-width", "1s",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", site, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		return cmd
	}
	startDaemon("site-a", portA, urlB)
	startDaemon("site-b", portB, urlA)
	waitHealthy(t, urlA)
	waitHealthy(t, urlB)

	ctl := func(args ...string) string {
		cmd := exec.Command(aequusctl, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("aequusctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Identity mappings on site A.
	ctl("-addr", urlA, "map", "alice", "site-a", "la01")
	ctl("-addr", urlA, "map", "bob", "site-a", "lb01")
	if got := strings.TrimSpace(ctl("-addr", urlA, "resolve", "site-a", "la01")); got != "alice" {
		t.Fatalf("resolve = %q", got)
	}

	// bob burns an hour of compute on site B.
	ctl("-addr", urlB, "report", "bob", "3600", "2")

	// Wait for exchange + pre-calculation to propagate B -> A.
	deadline := time.Now().Add(10 * time.Second)
	for {
		out := ctl("-addr", urlA, "fairshare")
		va, vb := parseValue(out, "alice"), parseValue(out, "bob")
		if va > vb {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alice (%g) never outranked bob (%g) on site A:\n%s", va, vb, out)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Run-time projection switch via the control client.
	out := ctl("-addr", urlA, "projection", "dictionary")
	if !strings.Contains(out, "dictionary") {
		t.Fatalf("projection switch output: %q", out)
	}

	// tracegen produces a parseable trace with the documented stats.
	traceFile := filepath.Join(dir, "trace.txt")
	cmd := exec.Command(tracegen, "-jobs", "500", "-span", "1h", "-out", traceFile, "-stats")
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, b)
	} else if !strings.Contains(string(b), "u65") {
		t.Fatalf("tracegen stats missing users:\n%s", b)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil || len(data) == 0 {
		t.Fatalf("trace file: %v (%d bytes)", err, len(data))
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon at %s never became healthy: %v", base, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// parseValue extracts the VALUE column for a user from aequusctl fairshare
// table output.
func parseValue(out, user string) float64 {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == user {
			var v float64
			fmt.Sscanf(f[1], "%f", &v)
			return v
		}
	}
	return -1
}
