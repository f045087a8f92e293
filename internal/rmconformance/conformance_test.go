package rmconformance

import (
	"math"
	"testing"
	"time"
)

// forEach runs one conformance test against every substrate.
func forEach(t *testing.T, fn func(t *testing.T, sub Substrate)) {
	for _, sub := range Substrates() {
		sub := sub
		t.Run(sub.Name, func(t *testing.T) { fn(t, sub) })
	}
}

// TestCalloutReceivesLocalUser verifies the fairshare call-out is invoked
// with the job's local (site-mapped) user identity — the contract identity
// resolution depends on.
func TestCalloutReceivesLocalUser(t *testing.T) {
	forEach(t, func(t *testing.T, sub Substrate) {
		rec := &Recorder{}
		env := sub.Build(t, 4, rec.Hooks(map[string]float64{"s00_ua": 0.7, "s00_ub": 0.3}))
		env.RM.Submit(Job(1, "s00_ua", 1, time.Minute, epoch))
		env.RM.Submit(Job(2, "s00_ub", 1, time.Minute, epoch))
		env.RM.Schedule(epoch)
		calls := rec.FairshareCalls()
		if len(calls) == 0 {
			t.Fatal("fairshare call-out never invoked")
		}
		for _, u := range calls {
			if u != "s00_ua" && u != "s00_ub" {
				t.Errorf("call-out received %q, want a local user name", u)
			}
		}
	})
}

// TestCalloutErrorFallsBackNeutral verifies a failing fairshare call-out
// degrades to the neutral 0.5 factor — the job is neither lost nor
// privileged — and that the failure is counted. A 0.9 user must beat the
// erroring user, which in turn must beat a 0.1 user.
func TestCalloutErrorFallsBackNeutral(t *testing.T) {
	forEach(t, func(t *testing.T, sub Substrate) {
		rec := &Recorder{}
		// "ghost" is missing from the table: its call-out errors.
		env := sub.Build(t, 1, rec.Hooks(map[string]float64{"hi": 0.9, "lo": 0.1}))

		// Occupy the single core so the three probe jobs queue up.
		blocker := Job(1, "hi", 1, 10*time.Minute, epoch)
		env.RM.Submit(blocker)
		env.RM.Schedule(epoch)
		if env.Cluster.RunningCount() != 1 {
			t.Fatalf("blocker did not start (running=%d)", env.Cluster.RunningCount())
		}

		env.RM.Submit(Job(2, "lo", 1, time.Minute, epoch))
		env.RM.Submit(Job(3, "ghost", 1, time.Minute, epoch))
		env.RM.Submit(Job(4, "hi", 1, time.Minute, epoch))
		env.RM.Schedule(epoch)
		if got := env.RM.QueueLen(); got != 3 {
			t.Fatalf("queue has %d jobs, want 3", got)
		}
		if env.Errors() == 0 {
			t.Error("failed call-out not counted")
		}

		// Drain: completions trigger fills, one core serializes dispatches.
		env.Kernel.Run(epoch.Add(time.Hour))
		starts := rec.Starts()
		if len(starts) != 4 {
			t.Fatalf("observed %d starts, want 4", len(starts))
		}
		order := []int64{starts[1].JobID, starts[2].JobID, starts[3].JobID}
		want := []int64{4, 3, 2} // hi (0.9), ghost (neutral 0.5), lo (0.1)
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("dispatch order %v, want %v (erroring user must rank neutral)", order, want)
			}
		}
	})
}

// TestDispatchPriorityIsTheCallout verifies that fairshare is the only
// priority factor: every job is dispatched at exactly the value its
// fairshare call-out returned, Float64bits-equal, and at exactly the neutral
// 0.5 when the call-out fails. Adding anything to the value, even +0, fails
// here, because it turns −0 into +0.
func TestDispatchPriorityIsTheCallout(t *testing.T) {
	values := map[string]float64{
		"negzero": math.Copysign(0, -1),
		"third":   1.0 / 3,
		"tiny":    math.SmallestNonzeroFloat64,
		"one":     1,
	}
	users := []string{"negzero", "third", "tiny", "one", "ghost"} // ghost's call-out fails
	forEach(t, func(t *testing.T, sub Substrate) {
		rec := &Recorder{}
		env := sub.Build(t, len(users), rec.Hooks(values))
		for i, u := range users {
			env.RM.Submit(Job(int64(i+1), u, 1, time.Minute, epoch))
		}
		env.RM.Schedule(epoch)
		env.Kernel.Run(epoch.Add(time.Hour))

		starts := rec.Starts()
		if len(starts) != len(users) {
			t.Fatalf("observed %d starts, want %d", len(starts), len(users))
		}
		for _, st := range starts {
			u := users[st.JobID-1]
			want, ok := values[u]
			if !ok {
				want = 0.5
			}
			if math.Float64bits(st.Priority) != math.Float64bits(want) {
				t.Errorf("%s dispatched at %v (bits %#x), want the call-out's %v (bits %#x)",
					u, st.Priority, math.Float64bits(st.Priority), want, math.Float64bits(want))
			}
		}
	})
}

// TestCompletionHookExact verifies the completion call-out fires exactly
// once per job and reports the actual start time, runtime and width — the
// numbers the Aequus usage pipeline ingests.
func TestCompletionHookExact(t *testing.T) {
	forEach(t, func(t *testing.T, sub Substrate) {
		rec := &Recorder{}
		env := sub.Build(t, 8, rec.Hooks(map[string]float64{"ua": 0.5}))
		jobs := []struct {
			id    int64
			procs int
			dur   time.Duration
		}{
			{1, 1, 5 * time.Minute},
			{2, 2, 3 * time.Minute},
			{3, 4, 7 * time.Minute},
		}
		for _, j := range jobs {
			env.RM.Submit(Job(j.id, "ua", j.procs, j.dur, epoch))
		}
		env.RM.Schedule(epoch)
		env.Kernel.Run(epoch.Add(time.Hour))

		comps := rec.Completions()
		if len(comps) != len(jobs) {
			t.Fatalf("completion hook fired %d times, want %d", len(comps), len(jobs))
		}
		byID := map[int64]CompletionRecord{}
		for _, c := range comps {
			if _, dup := byID[c.JobID]; dup {
				t.Fatalf("job %d completed twice", c.JobID)
			}
			byID[c.JobID] = c
		}
		for _, j := range jobs {
			c, ok := byID[j.id]
			if !ok {
				t.Fatalf("job %d never reported", j.id)
			}
			if c.Duration != j.dur || c.Procs != j.procs || c.User != "ua" {
				t.Errorf("job %d reported (%s, %d procs, %s), want (%s, %d procs, ua)",
					j.id, c.Duration, c.Procs, c.User, j.dur, j.procs)
			}
			if !c.Start.Equal(epoch) {
				t.Errorf("job %d start %s, want %s", j.id, c.Start, epoch)
			}
		}
	})
}

// TestFairshareOrder verifies the substrate dispatches the
// higher-fairshare user first when cores are scarce, regardless of
// submission order.
func TestFairshareOrder(t *testing.T) {
	forEach(t, func(t *testing.T, sub Substrate) {
		rec := &Recorder{}
		env := sub.Build(t, 1, rec.Hooks(map[string]float64{"strong": 0.8, "weak": 0.2}))
		env.RM.Submit(Job(1, "strong", 1, 10*time.Minute, epoch))
		env.RM.Schedule(epoch)

		// Weak user submits BEFORE the strong one; fairshare must win.
		env.RM.Submit(Job(2, "weak", 1, time.Minute, epoch.Add(time.Minute)))
		env.RM.Submit(Job(3, "strong", 1, time.Minute, epoch.Add(2*time.Minute)))
		env.RM.Schedule(epoch.Add(2 * time.Minute))
		env.Kernel.Run(epoch.Add(time.Hour))

		starts := rec.Starts()
		if len(starts) != 3 {
			t.Fatalf("observed %d starts, want 3", len(starts))
		}
		if starts[1].JobID != 3 || starts[2].JobID != 2 {
			t.Errorf("dispatch order [%d %d], want [3 2] (fairshare beats FIFO)",
				starts[1].JobID, starts[2].JobID)
		}
	})
}

// TestEqualPriorityFIFO verifies equal-fairshare jobs dispatch in
// submission order — the documented tie-break both substrates inherit from
// the shared priority queue.
func TestEqualPriorityFIFO(t *testing.T) {
	forEach(t, func(t *testing.T, sub Substrate) {
		rec := &Recorder{}
		env := sub.Build(t, 1, rec.Hooks(map[string]float64{"ua": 0.5, "ub": 0.5}))
		env.RM.Submit(Job(1, "ua", 1, 10*time.Minute, epoch))
		env.RM.Schedule(epoch)

		users := []string{"ub", "ua", "ub", "ua"}
		for i, u := range users {
			env.RM.Submit(Job(int64(10+i), u, 1, time.Minute, epoch.Add(time.Duration(i+1)*time.Minute)))
		}
		env.RM.Schedule(epoch.Add(5 * time.Minute))
		env.Kernel.Run(epoch.Add(2 * time.Hour))

		starts := rec.Starts()
		if len(starts) != 5 {
			t.Fatalf("observed %d starts, want 5", len(starts))
		}
		for i := 1; i < len(starts); i++ {
			if i > 1 && starts[i].JobID < starts[i-1].JobID {
				t.Errorf("equal-priority dispatch out of submission order: %d before %d",
					starts[i-1].JobID, starts[i].JobID)
			}
		}
	})
}

// TestCountersConsistent verifies the bookkeeping surface: submitted =
// queued + running + completed at every stage of a drain.
func TestCountersConsistent(t *testing.T) {
	forEach(t, func(t *testing.T, sub Substrate) {
		rec := &Recorder{}
		env := sub.Build(t, 2, rec.Hooks(map[string]float64{"ua": 0.5}))
		const n = 6
		for i := 0; i < n; i++ {
			env.RM.Submit(Job(int64(i+1), "ua", 1, time.Duration(i+1)*time.Minute, epoch))
		}
		env.RM.Schedule(epoch)
		check := func(when string) {
			completed := len(rec.Completions())
			total := env.RM.QueueLen() + env.RM.RunningCount() + completed
			if total != n {
				t.Fatalf("%s: queued %d + running %d + completed %d != submitted %d",
					when, env.RM.QueueLen(), env.RM.RunningCount(), completed, n)
			}
		}
		check("after schedule")
		if env.RM.Submitted() != n {
			t.Fatalf("Submitted() = %d, want %d", env.RM.Submitted(), n)
		}
		for env.Kernel.Step() {
			check("mid-drain")
		}
		check("after drain")
		if got := len(rec.Completions()); got != n {
			t.Fatalf("completed %d jobs, want %d", got, n)
		}
		if env.RM.QueueLen() != 0 || env.RM.RunningCount() != 0 {
			t.Fatalf("leftover state: queue %d running %d", env.RM.QueueLen(), env.RM.RunningCount())
		}
	})
}

// TestPendingSnapshot verifies Pending returns exactly the queued jobs.
func TestPendingSnapshot(t *testing.T) {
	forEach(t, func(t *testing.T, sub Substrate) {
		rec := &Recorder{}
		env := sub.Build(t, 1, rec.Hooks(map[string]float64{"ua": 0.5}))
		env.RM.Submit(Job(1, "ua", 1, 10*time.Minute, epoch))
		env.RM.Schedule(epoch)
		env.RM.Submit(Job(2, "ua", 1, time.Minute, epoch))
		env.RM.Submit(Job(3, "ua", 1, time.Minute, epoch))
		env.RM.Schedule(epoch)
		ids := map[int64]bool{}
		for _, j := range env.RM.Pending() {
			ids[j.ID] = true
		}
		if len(ids) != 2 || !ids[2] || !ids[3] {
			t.Fatalf("Pending() = %v, want jobs 2 and 3", ids)
		}
	})
}
