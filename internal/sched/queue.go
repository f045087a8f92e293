package sched

import "container/heap"

// PriorityQueue is a max-heap of pending jobs ordered by (priority desc,
// submit asc, ID asc). Priorities are set when jobs are pushed and updated
// in bulk at reprioritization points, so steady-state scheduling passes cost
// O(log n) per started job instead of a full sort — essential for the
// 43,200-job testbed runs.
type PriorityQueue struct {
	h jobHeap
}

type jobHeap []QueuedJob

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	if !h[i].Job.Submit.Equal(h[j].Job.Submit) {
		return h[i].Job.Submit.Before(h[j].Job.Submit)
	}
	return h[i].Job.ID < h[j].Job.ID
}
func (h jobHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x interface{}) { *h = append(*h, x.(QueuedJob)) }
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = QueuedJob{}
	*h = old[:n-1]
	return it
}

// Len returns the number of queued jobs.
func (q *PriorityQueue) Len() int { return len(q.h) }

// Push enqueues a job with its current priority.
func (q *PriorityQueue) Push(j *Job, priority float64) {
	heap.Push(&q.h, QueuedJob{Job: j, Priority: priority})
}

// Pop removes and returns the highest-priority job.
func (q *PriorityQueue) Pop() (QueuedJob, bool) {
	if len(q.h) == 0 {
		return QueuedJob{}, false
	}
	return heap.Pop(&q.h).(QueuedJob), true
}

// Jobs returns the queued jobs in heap (unspecified) order.
func (q *PriorityQueue) Jobs() []*Job {
	out := make([]*Job, len(q.h))
	for i := range q.h {
		out[i] = q.h[i].Job
	}
	return out
}

// Reprioritize recomputes every queued job's priority with f and restores
// the heap invariant in O(n).
func (q *PriorityQueue) Reprioritize(f func(*Job) float64) {
	for i := range q.h {
		q.h[i].Priority = f(q.h[i].Job)
	}
	heap.Init(&q.h)
}
