// Package slot is the one name → position table of the per-user stores: the
// fairshare index and the usage histogram each keep their users in a dense
// name column and find a user's position through a Table, an open-addressed
// []int32 with no pointers for the collector to scan.
//
// A Table holds position+1 per slot (0 is empty) and probes linearly; a hit
// is confirmed against the caller's own name column, so the table repeats no
// name. Slots are picked by Hash, which is seeded once per process like Go's
// own maps, so names chosen by a client or a peer cannot be made to collide.
package slot

import "hash/maphash"

// seed is the process-wide seed of Hash.
var seed = maphash.MakeSeed()

// Hash returns name's slot hash under the process-wide seed.
func Hash(name string) uint64 { return maphash.String(seed, name) }

// Table maps names to their positions in a caller-owned name column. The
// zero value is an empty table; it is safe for concurrent readers once no one
// writes it.
type Table struct {
	slots []int32 // position+1; 0 is empty
	n     int     // occupied slots
}

// Make returns an empty table with room for n names: a power of two of at
// least 2n slots, so the load never passes one half.
func Make(n int) Table {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return Table{slots: make([]int32, size)}
}

// Len returns the number of names in the table.
func (t *Table) Len() int { return t.n }

// Find returns the position of name, whose Hash is h, in names.
func (t *Table) Find(names []string, name string, h uint64) (int32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		p := t.slots[i]
		if p == 0 {
			return 0, false
		}
		if names[p-1] == name {
			return p - 1, true
		}
	}
}

// Reserve makes room for n names in all. When the table would pass half
// full it doubles and re-hashes names, the column it indexes, every entry of
// which must be in the table.
func (t *Table) Reserve(names []string, n int) {
	if 2*n <= len(t.slots) {
		return
	}
	grown := Make(max(n, 2*t.n))
	for p, name := range names {
		grown.Add(Hash(name), int32(p))
	}
	*t = grown
}

// Add records pos for a name, with Hash h, that is not in the table. The
// table must have room for it (Make, Reserve).
func (t *Table) Add(h uint64, pos int32) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = pos + 1
	t.n++
}

// at returns the slot holding pos, whose name has Hash h.
func (t *Table) at(h uint64, pos int32) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != pos+1 {
		i = (i + 1) & mask
	}
	return i
}

// Move re-points the entry of the name at position from, with Hash h, to
// position to: the caller moved the name in its column.
func (t *Table) Move(h uint64, from, to int32) {
	t.slots[t.at(h, from)] = to + 1
}

// Delete removes the entry of pos, whose name has Hash h, and closes the gap
// by shifting later entries of the probe run back (no tombstones). names is
// read for the home slots of the entries it shifts.
func (t *Table) Delete(names []string, h uint64, pos int32) {
	mask := uint64(len(t.slots) - 1)
	hole := t.at(h, pos)
	for j := (hole + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home slot lies
		// cyclically in (hole, j]: it would then sit before its home.
		home := Hash(names[t.slots[j]-1]) & mask
		if (j-home)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = 0
	t.n--
}
