// Command aequusctl is the control client for a running aequusd: it queries
// fairshare priorities, policies and usage, stores identity mappings,
// triggers exchanges, switches the projection algorithm at run time, and
// inspects a site's telemetry.
//
// Usage:
//
//	aequusctl -addr http://localhost:7470 fairshare [user]
//	aequusctl -addr ... policy
//	aequusctl -addr ... resolve <site> <localUser>
//	aequusctl -addr ... map <gridID> <site> <localUser>
//	aequusctl -addr ... report <gridUser> <durationSeconds> [procs]
//	aequusctl -addr ... exchange
//	aequusctl -addr ... projection <dictionary|bitwise|percental>
//	aequusctl -addr ... metrics [prefix]
//	aequusctl -addr ... ready
//	aequusctl -addr ... trace [n]
//	aequusctl -addr ... drift
//	aequusctl -addr ... fcs
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/policy"
	"repro/internal/services/httpapi"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", "http://localhost:7470", "aequusd base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	c := httpapi.NewClient(*addr, "aequusctl")

	var err error
	switch args[0] {
	case "fairshare":
		err = cmdFairshare(c, args[1:])
	case "policy":
		err = cmdPolicy(c)
	case "resolve":
		err = cmdResolve(c, args[1:])
	case "map":
		err = cmdMap(c, args[1:])
	case "report":
		err = cmdReport(c, args[1:])
	case "exchange":
		err = c.TriggerExchange(context.Background())
	case "projection":
		err = cmdProjection(c, args[1:])
	case "metrics":
		err = cmdMetrics(c, args[1:])
	case "ready":
		err = cmdReady(c)
	case "trace":
		err = cmdTrace(c, args[1:])
	case "drift":
		err = cmdDrift(c)
	case "fcs":
		err = cmdFcs(c)
	default:
		usage()
	}
	if err != nil {
		log.Fatalf("aequusctl: %v", err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: aequusctl [-addr URL] <fairshare|policy|resolve|map|report|exchange|projection|metrics|ready|trace|drift|fcs> [args]")
	os.Exit(2)
}

func cmdFairshare(c *httpapi.Client, args []string) error {
	if len(args) == 1 {
		resp, err := c.Priority(args[0])
		if err != nil {
			return err
		}
		fmt.Printf("user=%s value=%.6f priority=%.6f vector=%v computed=%s\n",
			resp.User, resp.Value, resp.Priority, resp.Vector, resp.ComputedAt.Format(time.RFC3339))
		return nil
	}
	tab, err := c.Table()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "USER\tVALUE\tPRIORITY\tVECTOR")
	for _, e := range tab.Entries {
		fmt.Fprintf(tw, "%s\t%.6f\t%.6f\t%v\n", e.User, e.Value, e.Priority, e.Vector)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("projection=%s computed=%s\n", tab.Projection, tab.ComputedAt.Format(time.RFC3339))
	return nil
}

func cmdPolicy(c *httpapi.Client) error {
	t, err := c.Policy()
	if err != nil {
		return err
	}
	return policy.WriteText(os.Stdout, t)
}

func cmdResolve(c *httpapi.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("resolve needs <site> <localUser>")
	}
	g, err := c.Resolve(args[0], args[1])
	if err != nil {
		return err
	}
	fmt.Println(g)
	return nil
}

func cmdMap(c *httpapi.Client, args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("map needs <gridID> <site> <localUser>")
	}
	return c.StoreMapping(args[0], args[1], args[2])
}

func cmdReport(c *httpapi.Client, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("report needs <gridUser> <durationSeconds> [procs]")
	}
	dur, err := strconv.ParseFloat(args[1], 64)
	if err != nil || dur < 0 {
		return fmt.Errorf("bad duration %q", args[1])
	}
	procs := 1
	if len(args) >= 3 {
		procs, err = strconv.Atoi(args[2])
		if err != nil || procs < 1 {
			return fmt.Errorf("bad procs %q", args[2])
		}
	}
	start := time.Now().Add(-time.Duration(dur * float64(time.Second)))
	return c.ReportJobErr(args[0], start, time.Duration(dur*float64(time.Second)), procs)
}

// cmdMetrics fetches /metrics and pretty-prints it: one aligned
// series/value row per sample, grouped under the family's HELP text. An
// optional prefix argument filters by metric name.
func cmdMetrics(c *httpapi.Client, args []string) error {
	prefix := ""
	if len(args) >= 1 {
		prefix = args[0]
	}
	text, err := c.MetricsText(context.Background())
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if prefix != "" && !strings.HasPrefix(name, prefix) {
				continue
			}
			fmt.Fprintf(tw, "# %s\t— %s\n", name, help)
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			continue
		}
		series, value := line[:idx], line[idx+1:]
		if prefix != "" && !strings.HasPrefix(series, prefix) {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\n", series, value)
	}
	return sc.Err()
}

// cmdReady fetches /readyz and prints the per-service readiness breakdown,
// exiting non-zero when the site is not ready.
func cmdReady(c *httpapi.Client) error {
	r, err := c.Ready(context.Background())
	if err != nil {
		return err
	}
	names := make([]string, 0, len(r.Components))
	for n := range r.Components {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SERVICE\tREADY\tAGE\tREASON")
	for _, n := range names {
		comp := r.Components[n]
		age := "-"
		if !comp.ComputedAt.IsZero() {
			age = fmt.Sprintf("%.1fs", comp.AgeSeconds)
		}
		fmt.Fprintf(tw, "%s\t%v\t%s\t%s\n", n, comp.Ready, age, comp.Reason)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if !r.Ready {
		return fmt.Errorf("site not ready")
	}
	fmt.Println("ready")
	return nil
}

// cmdTrace fetches the n most recent traces (default 5) from /debug/aequus
// and renders each as an indented span tree reconstructed from parent links,
// with durations, attributes and errors inline.
func cmdTrace(c *httpapi.Client, args []string) error {
	n := 5
	if len(args) >= 1 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 1 {
			return fmt.Errorf("bad trace count %q", args[0])
		}
		n = v
	}
	resp, err := c.DebugTraces(context.Background(), n)
	if err != nil {
		return err
	}
	if len(resp.Traces) == 0 {
		fmt.Println("no traces recorded (is aequusd running with -trace-buffer > 0?)")
		return nil
	}
	for i, tr := range resp.Traces {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("trace %s (%d spans)\n", tr.TraceID, len(tr.Spans))
		children := map[string][]wire.DebugSpan{}
		byID := map[string]bool{}
		for _, sp := range tr.Spans {
			byID[sp.SpanID] = true
		}
		for _, sp := range tr.Spans {
			parent := sp.ParentID
			if !byID[parent] {
				parent = "" // orphan (parent evicted or remote): promote to root
			}
			children[parent] = append(children[parent], sp)
		}
		var walk func(parent string, depth int)
		walk = func(parent string, depth int) {
			for _, sp := range children[parent] {
				line := fmt.Sprintf("%s%s  %.3fms", strings.Repeat("  ", depth+1),
					sp.Name, sp.DurationSeconds*1000)
				for _, a := range sp.Attrs {
					line += fmt.Sprintf(" %s=%s", a.Key, a.Value)
				}
				if sp.Error != "" {
					line += " error=" + sp.Error
				}
				fmt.Println(line)
				walk(sp.SpanID, depth+1)
			}
		}
		walk("", 0)
	}
	return nil
}

// cmdDrift prints the site's fairness-drift table: per-user |usage share −
// target share| at the last snapshot, worst offender first.
func cmdDrift(c *httpapi.Client) error {
	d, err := c.DebugDrift(context.Background())
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "USER\tTARGET\tACTUAL\tERROR")
	for _, e := range d.Entries {
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\n", e.User, e.Target, e.Actual, e.Error)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("max=%.4f mean=%.4f computed=%s\n",
		d.MaxError, d.MeanError, d.ComputedAt.Format(time.RFC3339))
	return nil
}

// cmdFcs prints the fairshare computation service's refresh health: how the
// last refresh ran (full or incremental), how many users it had to
// recompute, and how long it took — the page that tells an operator whether
// steady state is actually incremental.
func cmdFcs(c *httpapi.Client) error {
	s, err := c.DebugSummary(context.Background())
	if err != nil {
		return err
	}
	mode := s.FCSRefreshMode
	if mode == "" {
		mode = "-"
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "last refresh mode\t%s\n", mode)
	fmt.Fprintf(tw, "dirty users\t%d\n", s.FCSDirtyUsers)
	fmt.Fprintf(tw, "refresh duration\t%.3fms\n", s.FCSRefreshSeconds*1000)
	if s.FCSRefreshMode == "incremental" {
		fmt.Fprintf(tw, "  fold/rescore/materialize\t%.3f / %.3f / %.3fms\n",
			s.FCSFoldSeconds*1000, s.FCSRescoreSeconds*1000, s.FCSMaterializeSeconds*1000)
		fmt.Fprintf(tw, "  segments rebuilt/shared\t%d / %d\n",
			s.FCSMaterializedSegments, s.FCSSharedSegments)
	}
	fmt.Fprintf(tw, "  publish\t%.3fms\n", s.FCSPublishSeconds*1000)
	if s.FCSUsageReference != nil {
		fmt.Fprintf(tw, "usage scale\t%.9g (sums at %s)\n", s.FCSUsageScale, s.FCSUsageReference.Format(time.RFC3339))
	}
	fmt.Fprintf(tw, "snapshot computed\t%s\n", s.FCSComputedAt.Format(time.RFC3339))
	fmt.Fprintf(tw, "drift max/mean\t%.4f / %.4f\n", s.DriftMax, s.DriftMean)
	if s.FCSLastRefreshError != "" {
		fmt.Fprintf(tw, "last refresh error\t%s\n", s.FCSLastRefreshError)
	}
	return tw.Flush()
}

func cmdProjection(c *httpapi.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("projection needs a name")
	}
	if err := c.SetProjection(args[0]); err != nil {
		return fmt.Errorf("projection switch failed: %w", err)
	}
	fmt.Printf("projection set to %s\n", args[0])
	return nil
}
