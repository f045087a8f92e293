package sched

import (
	"math/rand"
	"testing"
	"time"
)

func TestPriorityQueueOrdering(t *testing.T) {
	q := &PriorityQueue{}
	q.Push(&Job{ID: 1, Submit: t0}, 0.2)
	q.Push(&Job{ID: 2, Submit: t0}, 0.9)
	q.Push(&Job{ID: 3, Submit: t0}, 0.5)
	want := []int64{2, 3, 1}
	for _, id := range want {
		qj, ok := q.Pop()
		if !ok || qj.Job.ID != id {
			t.Fatalf("pop = %v/%v, want %d", qj.Job, ok, id)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from empty queue succeeded")
	}
}

func TestPriorityQueueTieBreaks(t *testing.T) {
	q := &PriorityQueue{}
	q.Push(&Job{ID: 5, Submit: t0.Add(time.Second)}, 0.5)
	q.Push(&Job{ID: 9, Submit: t0}, 0.5)
	q.Push(&Job{ID: 2, Submit: t0}, 0.5)
	want := []int64{2, 9, 5} // older first, then lower ID
	for _, id := range want {
		qj, _ := q.Pop()
		if qj.Job.ID != id {
			t.Fatalf("tie-break order wrong: got %d, want %d", qj.Job.ID, id)
		}
	}
}

func TestPriorityQueueReprioritize(t *testing.T) {
	q := &PriorityQueue{}
	for i := int64(1); i <= 10; i++ {
		q.Push(&Job{ID: i, Submit: t0}, float64(i))
	}
	// Invert: lowest ID now highest priority.
	q.Reprioritize(func(j *Job) float64 { return -float64(j.ID) })
	qj, _ := q.Pop()
	if qj.Job.ID != 1 {
		t.Errorf("after reprioritize top = %d, want 1", qj.Job.ID)
	}
}

func TestPriorityQueueMatchesSortQueue(t *testing.T) {
	// The heap must drain in exactly the order SortQueue defines.
	rng := rand.New(rand.NewSource(9))
	q := &PriorityQueue{}
	var ref []QueuedJob
	for i := int64(0); i < 200; i++ {
		j := &Job{ID: i, Submit: t0.Add(time.Duration(rng.Intn(10)) * time.Second)}
		p := float64(rng.Intn(5)) / 4
		q.Push(j, p)
		ref = append(ref, QueuedJob{Job: j, Priority: p})
	}
	SortQueue(ref)
	for i := range ref {
		qj, ok := q.Pop()
		if !ok || qj.Job.ID != ref[i].Job.ID {
			t.Fatalf("drain order diverges from SortQueue at %d", i)
		}
	}
}

func TestPriorityQueueJobs(t *testing.T) {
	q := &PriorityQueue{}
	q.Push(&Job{ID: 1, Submit: t0}, 1)
	q.Push(&Job{ID: 2, Submit: t0}, 2)
	jobs := q.Jobs()
	if len(jobs) != 2 {
		t.Errorf("Jobs = %d", len(jobs))
	}
}
