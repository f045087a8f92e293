package httpapi

import (
	"sync"
	"testing"

	"repro/internal/simclock"
	"repro/internal/wire"
)

// TestConcurrentClients hammers one site with parallel priority queries,
// usage reports and exchanges — the batched-submission scenario libaequus'
// cache exists for. Run with -race in CI to catch data races across the
// service stack.
func TestConcurrentClients(t *testing.T) {
	clock := simclock.NewSim(t0)
	s := newSite(t, "s", clock, map[string]float64{"alice": 0.5, "bob": 0.5})
	c := NewClient(s.server.URL, "s")
	if err := c.StoreMapping("alice", "s", "la"); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreMapping("bob", "s", "lb"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := NewClient(s.server.URL, "s")
			for i := 0; i < 40; i++ {
				switch (w + i) % 4 {
				case 0:
					if _, err := cli.Priority("alice"); err != nil {
						errs <- err
						return
					}
				case 1:
					if err := cli.ReportJobBatch([]wire.UsageReport{{User: "bob", Start: t0, DurationSeconds: 60, Procs: 1}}); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := cli.Table(); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, err := cli.Resolve("s", "la"); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The stack still answers coherently afterwards.
	if err := s.fcs.Refresh(); err != nil {
		t.Fatal(err)
	}
	pa, err := c.Priority("alice")
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := c.Priority("bob")
	if pa.Value <= pb.Value {
		t.Errorf("alice=%g should outrank bob=%g after bob's reported usage", pa.Value, pb.Value)
	}
}
