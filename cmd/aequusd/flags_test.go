package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// newFlagSet is aequusd's flag set, as main registers it.
func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("aequusd", flag.ContinueOnError)
	bindFlags(fs)
	return fs
}

// TestHelpPinned: aequusd -h prints, below its "Usage of" line, exactly
// testdata/help.txt: every flag, its type, usage and default. A default
// that moves, in core.Defaults or here, shows in this diff.
func TestHelpPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/help.txt")
	if err != nil {
		t.Fatal(err)
	}
	fs := newFlagSet()
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	if got.String() != string(want) {
		t.Errorf("aequusd -h differs from testdata/help.txt:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

// TestReadmeFlagDefaults: every README table row that documents a flag
// names a registered flag and states its live default.
func TestReadmeFlagDefaults(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := newFlagSet()
	rows, bad := readmeFlagRows(string(readme), fs)
	if rows == 0 {
		t.Fatal("README.md has no flag table rows")
	}
	for _, b := range bad {
		t.Error(b)
	}
	const fixture = "| `-retry-max` | `4` | Max attempts. |\n| `-no-such-flag` | _(empty)_ | Gone. |\n"
	if _, bad := readmeFlagRows(fixture, fs); len(bad) != 2 {
		t.Errorf("the fixture trips the check %d times, want 2 (a wrong default and an unknown flag): %q", len(bad), bad)
	}
}

// readmeFlagRows checks the Markdown table rows of doc whose first cell is
// a backticked flag ("| `-name` | `default` | meaning |") against fs. It
// returns how many such rows there are and one message per row whose flag
// is not registered or whose Default cell is not the flag's DefValue
// ("_(empty)_" stands for "").
func readmeFlagRows(doc string, fs *flag.FlagSet) (rows int, bad []string) {
	for i, line := range strings.Split(doc, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.TrimSpace(cells[0]) != "" {
			continue
		}
		name, ok := strings.CutPrefix(strings.TrimSpace(cells[1]), "`-")
		if !ok || !strings.HasSuffix(name, "`") {
			continue
		}
		name = strings.TrimSuffix(name, "`")
		rows++
		f := fs.Lookup(name)
		if f == nil {
			bad = append(bad, fmt.Sprintf("line %d: -%s is not a flag", i+1, name))
			continue
		}
		def := strings.TrimSpace(cells[2])
		if def == "_(empty)_" {
			def = ""
		} else {
			def = strings.Trim(def, "`")
		}
		if def != f.DefValue {
			bad = append(bad, fmt.Sprintf("line %d: -%s defaults to %q, README says %q", i+1, name, f.DefValue, def))
		}
	}
	return rows, bad
}
