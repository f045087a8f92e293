package main

// Input generation. Everything the system is fed comes from here and from
// -seed alone: the policy tree, the usage history, the per-round completions
// and the request streams. The generator is the benchmark's own (it shares
// no code with internal/workload or internal/loadgen) so that a refactor of
// the harness packages cannot move the ruler.

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/policy"
)

// rng is SplitMix64: tiny, seedable, and splittable by reseeding a child
// with the parent's next output.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// split derives an independent stream; label keeps streams of one parent
// apart even when they are split in a different order.
func (r *rng) split(label uint64) *rng { return newRNG(r.next() ^ label*0xd6e8feb86659fd93) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fingerprint is an FNV-64a digest of generated inputs. It is frozen once
// the part of the run every invocation executes (set-up, warm-up and the
// minimum number of timed rounds) has been generated, so two runs with the
// same seed report the same value however long their timed part lasted.
type fingerprint struct {
	h      hash.Hash64
	frozen bool
	buf    [8]byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) u64(v uint64) {
	if f.frozen {
		return
	}
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}

func (f *fingerprint) str(s string) {
	if f.frozen {
		return
	}
	f.h.Write([]byte(s))
	f.h.Write([]byte{0})
}

func (f *fingerprint) freeze() { f.frozen = true }

func (f *fingerprint) String() string { return fmt.Sprintf("%016x", f.h.Sum64()) }

// genPolicy builds a depth-3 policy: vos × projects × usersPer leaves. VO
// shares follow 1/rank^0.8 (a few large communities and a long tail, the
// shape national grids report); project and user shares are uniform in
// [0.1, 1.1). Nodes are linked directly because Tree.Add scans siblings and
// is quadratic at 1M leaves. Leaf names sort in tree order and share long
// prefixes, like real account names do.
func genPolicy(r *rng, fp *fingerprint, vos, projects, usersPer int) (*policy.Tree, []string) {
	users := make([]string, 0, vos*projects*usersPer)
	root := &policy.Node{Name: "", Share: 1, Children: make([]*policy.Node, 0, vos)}
	for v := 0; v < vos; v++ {
		vo := &policy.Node{
			Name:     fmt.Sprintf("vo%03d", v),
			Share:    1 / math.Pow(float64(v+1), 0.8),
			Children: make([]*policy.Node, 0, projects),
		}
		fp.str(vo.Name)
		fp.u64(math.Float64bits(vo.Share))
		for p := 0; p < projects; p++ {
			pr := &policy.Node{
				Name:     fmt.Sprintf("vo%03d-p%03d", v, p),
				Share:    0.1 + r.float(),
				Children: make([]*policy.Node, 0, usersPer),
			}
			fp.u64(math.Float64bits(pr.Share))
			for u := 0; u < usersPer; u++ {
				leaf := &policy.Node{
					Name:  fmt.Sprintf("vo%03d-p%03d-u%03d", v, p, u),
					Share: 0.1 + r.float(),
				}
				fp.u64(math.Float64bits(leaf.Share))
				pr.Children = append(pr.Children, leaf)
				users = append(users, leaf.Name)
			}
			vo.Children = append(vo.Children, pr)
		}
		root.Children = append(root.Children, vo)
	}
	return &policy.Tree{Root: root}, users
}

// job is one completed job: whole-second duration and a small power-of-two
// core count, so that core-seconds are integers and every ledger sum in the
// output checks is exact in float64.
type job struct {
	user  int
	end   time.Time
	dur   time.Duration
	procs int
}

func (j job) start() time.Time     { return j.end.Add(-j.dur) }
func (j job) coreSeconds() float64 { return j.dur.Seconds() * float64(j.procs) }

var procChoices = [...]int{1, 1, 2, 4, 8, 16}

// genJob draws one completion of the given user ending somewhere in
// (windowEnd-window, windowEnd]. Times are hashed as offsets so the
// fingerprint does not depend on the wall clock of real-clock workloads.
func genJob(r *rng, fp *fingerprint, user int, windowEnd time.Time, window time.Duration) job {
	back := time.Duration(r.next()%uint64(window/time.Second)) * time.Second
	j := job{
		user:  user,
		end:   windowEnd.Add(-back),
		dur:   time.Duration(300+r.intn(14100)) * time.Second,
		procs: procChoices[r.intn(len(procChoices))],
	}
	fp.u64(uint64(j.user))
	fp.u64(uint64(back))
	fp.u64(uint64(j.dur))
	fp.u64(uint64(j.procs))
	return j
}

// genHistorySlice returns slice d of a site's usage history: the history is
// perUser completions for every user spread evenly over `days` one-day
// slices ending at `end`. Users are visited by a stride walk, so each gets
// exactly perUser completions without a shuffle buffer.
func genHistorySlice(r *rng, fp *fingerprint, users, perUser, days, d int, end time.Time) []job {
	total := users * perUser
	lo, hi := d*total/days, (d+1)*total/days
	sliceEnd := end.Add(-time.Duration(days-1-d) * 24 * time.Hour)
	stride := coprimeStride(users)
	out := make([]job, 0, hi-lo)
	for k := lo; k < hi; k++ {
		user := int((uint64(k) * uint64(stride)) % uint64(users))
		out = append(out, genJob(r, fp, user, sliceEnd, 24*time.Hour))
	}
	return out
}

// coprimeStride returns a step near the golden section of n that is coprime
// with it, so k*stride mod n visits every user once per n steps.
func coprimeStride(n int) int {
	s := int(float64(n)*0.6180339887) | 1
	for gcd(s, n) != 1 {
		s += 2
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// pickDistinct draws n distinct user indices; `must` is always included
// first (the tagged user sits in every re-prioritization queue).
func pickDistinct(r *rng, users, n, must int) []int {
	if n > users {
		n = users
	}
	seen := map[int]bool{must: true}
	out := []int{must}
	for len(out) < n {
		u := r.intn(users)
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}
