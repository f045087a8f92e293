package identity

import (
	"errors"
	"sync"
	"testing"
)

func TestTableStoreAndLookup(t *testing.T) {
	tab := NewTable()
	if err := tab.Store(Mapping{GridID: "alice-dn", Site: "hpc2n", LocalUser: "grid001"}); err != nil {
		t.Fatal(err)
	}
	g, err := tab.ToGrid("hpc2n", "grid001")
	if err != nil || g != "alice-dn" {
		t.Errorf("ToGrid = %q, %v", g, err)
	}
}

func TestTableNotFound(t *testing.T) {
	tab := NewTable()
	if _, err := tab.ToGrid("s", "x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestTableSiteScoped(t *testing.T) {
	tab := NewTable()
	tab.Store(Mapping{GridID: "alice", Site: "siteA", LocalUser: "a1"})
	tab.Store(Mapping{GridID: "alice", Site: "siteB", LocalUser: "b7"})
	if g, _ := tab.ToGrid("siteA", "a1"); g != "alice" {
		t.Errorf("siteA a1 = %q", g)
	}
	if g, _ := tab.ToGrid("siteB", "b7"); g != "alice" {
		t.Errorf("siteB b7 = %q", g)
	}
	// The same local account name can map differently per site.
	tab.Store(Mapping{GridID: "bob", Site: "siteB", LocalUser: "a1"})
	if g, _ := tab.ToGrid("siteA", "a1"); g != "alice" {
		t.Errorf("siteA a1 = %q", g)
	}
	if g, _ := tab.ToGrid("siteB", "a1"); g != "bob" {
		t.Errorf("siteB a1 = %q", g)
	}
}

func TestTableRejectsEmpty(t *testing.T) {
	tab := NewTable()
	if err := tab.Store(Mapping{GridID: "", LocalUser: "x"}); err == nil {
		t.Error("empty grid id accepted")
	}
	if err := tab.Store(Mapping{GridID: "g", LocalUser: ""}); err == nil {
		t.Error("empty local user accepted")
	}
}

func TestTableConcurrent(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tab.Store(Mapping{GridID: "g", Site: "s", LocalUser: "l"})
				tab.ToGrid("s", "l")
			}
		}(i)
	}
	wg.Wait()
	if g, err := tab.ToGrid("s", "l"); err != nil || g != "g" {
		t.Errorf("ToGrid = %q, %v", g, err)
	}
}
