package durability

// Snapshot files. A snapshot is a compacted image of a site's entire
// durable usage state — local histogram bins, per-peer remote bins and
// watermarks, and the policy JSON — captured at a WAL segment boundary. The
// file is named with the index of the first segment NOT covered by it:
// recovery loads the newest snapshot snap-M and replays segments >= M.
//
// A snapshot is a WAL segment (wal.go): the AEQWAL01 magic, then one frame
// per usage.Mutation, in the order recovery applies them —
//
//	MutPolicy     the policy JSON (absent when there is none)
//	MutLocalSet   the local bins as absolute values; its Watermark counts
//	              the frames that follow
//	MutRemoteSet  one per peer, in site-name order: its bins and watermark
//
// Open queues these frames ahead of the WAL tail, so snapshot and tail are
// applied by one Replay through one applier. Unlike the newest segment a
// snapshot has no legal torn tail — it is written to a .tmp file, fsynced,
// then renamed — so a torn frame, a CRC mismatch, or a file that ends on a
// frame boundary short of what its local set announces fails Open.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/usage"
)

// retiredSnapMagic opened every snapshot before snapshots were WAL frames.
// Such a file is refused by name; nothing converts it.
const retiredSnapMagic = "AEQSNAP1"

// SnapshotState is the durable image of a site's usage state.
type SnapshotState struct {
	// Policy is the policy-tree JSON at capture time (nil when the site
	// has none to keep).
	Policy []byte
	// Local holds the site's own histogram bins, sorted by user then
	// interval start.
	Local []usage.Record
	// Remote holds each peer's mirrored bins, keyed by peer site name.
	Remote map[string][]usage.Record
	// Watermark holds the newest interval start pulled from each peer.
	Watermark map[string]time.Time
}

// mutations returns the snapshot's frames in apply order.
func (st *SnapshotState) mutations() []*usage.Mutation {
	peers := make([]string, 0, len(st.Remote))
	for p := range st.Remote {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	var out []*usage.Mutation
	if len(st.Policy) > 0 {
		out = append(out, &usage.Mutation{Kind: usage.MutPolicy, Blob: st.Policy})
	}
	out = append(out, &usage.Mutation{Kind: usage.MutLocalSet, Ops: usage.BinOps(st.Local), Watermark: int64(len(peers))})
	for _, p := range peers {
		out = append(out, &usage.Mutation{Kind: usage.MutRemoteSet, Site: p,
			Ops: usage.BinOps(st.Remote[p]), Watermark: st.Watermark[p].UnixNano()})
	}
	return out
}

func snapshotName(idx uint64) string {
	return fmt.Sprintf("snap-%08d.snap", idx)
}

func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
	if len(mid) != 8 {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// writeSnapshot atomically publishes st as the snapshot for segment index
// idx — write to a .tmp sibling, fsync, rename, fsync the directory — and
// returns the file's size.
func writeSnapshot(dir string, idx uint64, st *SnapshotState) (int, error) {
	muts := st.mutations()
	size := len(walMagic)
	for _, m := range muts {
		size += frameHeaderSize + m.EncodedSize()
	}
	data := append(make([]byte, 0, size), walMagic...)
	for _, m := range muts {
		data = appendFrame(data, m)
	}
	final := filepath.Join(dir, snapshotName(idx))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, err
	}
	syncDir(dir)
	return len(data), nil
}

// loadNewestSnapshot reads the highest-indexed snapshot in dir and returns
// its mutations in apply order, or none when no snapshot exists. A damaged
// newest snapshot is a loud error, never a fallback to an older one or to
// the frames before the damage — it means durable state the operator
// believed existed cannot be trusted.
func loadNewestSnapshot(dir string) ([]*usage.Mutation, uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	best := uint64(0)
	found := false
	for _, e := range ents {
		if idx, ok := parseSnapshotName(e.Name()); ok && (!found || idx > best) {
			best, found = idx, true
		}
	}
	if !found {
		return nil, 0, nil
	}
	path := filepath.Join(dir, snapshotName(best))
	var muts []*usage.Mutation
	due := int64(-1) // frames the local set announces that are yet to come; -1 before it
	end, err := scanSegment(path, false, func(payload []byte) error {
		m, err := usage.DecodeMutation(payload)
		if err != nil {
			return err
		}
		if m.Kind == usage.MutLocalSet {
			due = m.Watermark
		} else if due >= 0 {
			due--
		}
		muts = append(muts, m)
		return nil
	})
	if err != nil {
		if data, _ := os.ReadFile(path); bytes.HasPrefix(data, []byte(retiredSnapMagic)) {
			return nil, 0, fmt.Errorf("durability: snapshot %s is in the retired %s format, which this build neither reads nor converts", path, retiredSnapMagic)
		}
		return nil, 0, err
	}
	if due != 0 {
		return nil, 0, &CorruptionError{Path: path, Offset: end, Reason: "snapshot ends without the frames its local set announces"}
	}
	return muts, best, nil
}
