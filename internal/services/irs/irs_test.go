package irs

import (
	"errors"
	"testing"

	"repro/internal/identity"
)

func TestResolveFromTable(t *testing.T) {
	s := New()
	if err := s.Store(identity.Mapping{GridID: "alice-dn", Site: "s", LocalUser: "grid001"}); err != nil {
		t.Fatal(err)
	}
	g, err := s.Resolve("s", "grid001")
	if err != nil || g != "alice-dn" {
		t.Errorf("Resolve = %q, %v", g, err)
	}
}

func TestResolveFallsBackToEndpoint(t *testing.T) {
	s := New()
	calls := 0
	s.SetEndpoint(EndpointFunc(func(site, local string) (string, error) {
		calls++
		if local == "grid007" {
			return "bond-dn", nil
		}
		return "", errors.New("unknown account")
	}))
	g, err := s.Resolve("s", "grid007")
	if err != nil || g != "bond-dn" {
		t.Fatalf("Resolve = %q, %v", g, err)
	}
	if calls != 1 {
		t.Errorf("endpoint calls = %d", calls)
	}
	// Memoized: second resolve hits the table.
	s.Resolve("s", "grid007")
	if calls != 1 {
		t.Errorf("endpoint consulted again despite memoization: %d", calls)
	}
	// Endpoint errors propagate.
	if _, err := s.Resolve("s", "nobody"); err == nil {
		t.Error("endpoint error swallowed")
	}
}

func TestResolveWithoutEndpoint(t *testing.T) {
	s := New()
	if _, err := s.Resolve("s", "ghost"); !errors.Is(err, identity.ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestTableWinsOverEndpoint(t *testing.T) {
	s := New()
	s.Store(identity.Mapping{GridID: "table-answer", Site: "s", LocalUser: "u"})
	s.SetEndpoint(EndpointFunc(func(string, string) (string, error) {
		return "endpoint-answer", nil
	}))
	g, _ := s.Resolve("s", "u")
	if g != "table-answer" {
		t.Errorf("Resolve = %q, table should win", g)
	}
}
