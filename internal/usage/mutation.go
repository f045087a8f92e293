package usage

// Durable mutation records. Every write that changes a site's usage state — a
// group-committed batch of job reports (one job or many), a peer-exchange bin
// replacement, a policy edit — is describable as one Mutation, and replaying a
// mutation sequence in order reproduces the histogram state bitwise: the bin
// operations carry the exact float64 values and the exact apply order the live
// path used, and float addition is applied per (user, bin) in the same
// sequence. The binary encoding is versioned so log files written by an older
// build stay readable. It is also the body of a peer pull: a site serves its
// records as the MutRemoteSet the pulling site will log, so a usage record has
// one encoding from one site's histogram to the other's disk. And it is the
// content of a snapshot, a run of these mutations setting the whole state at
// once (MutLocalSet, one MutRemoteSet per peer, MutPolicy).

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// MutationKind enumerates the durable usage-state mutations.
type MutationKind uint8

// Mutation kinds. Values are part of the on-disk format — append only.
const (
	// MutLocalAdd accumulates one job report's op into the local histogram
	// (IngestBatch semantics). Only logs written before a single report
	// became a one-job MutLocalBatch hold it; they still replay.
	MutLocalAdd MutationKind = 1
	// MutLocalBatch accumulates a batch of ops into the local histogram as
	// one group-committed record (IngestBatch semantics): every local
	// report, single or batched.
	MutLocalBatch MutationKind = 2
	// MutRemoteSet replaces bins in the remote histogram of peer Site
	// (SetRecords semantics) and advances that peer's watermark.
	MutRemoteSet MutationKind = 3
	// MutPolicy replaces the policy tree; Blob carries the policy JSON
	// (float64 shares survive a JSON round-trip bit-exactly).
	MutPolicy MutationKind = 4
	// MutLocalSet replaces bins in the local histogram (SetRecords
	// semantics): the local image a snapshot holds. Watermark counts the
	// snapshot frames that follow it, so a snapshot cut at a frame boundary
	// is told from a whole one.
	MutLocalSet MutationKind = 5
)

// mutationVersion is the current encoding version byte.
const mutationVersion = 1

// minOpSize is the shortest encoding of one op: a one-byte prefix length, a
// one-byte length of an empty suffix, a one-byte start delta and a one-byte
// value.
const minOpSize = 4

// maxNameExpansion is how many bytes of user names a mutation sent by another
// site may spell out per byte of its encoding. Prefix compression lets an op
// of a few bytes repeat all but the end of a long name before it, so without
// a bound an 8 MiB body around one 1 KiB name decodes into a gigabyte of
// strings. A sorted export of ten-byte names stays below 1; hundred-byte names
// that differ only in a trailing counter reach about 12.
const maxNameExpansion = 16

// BinOp is one (user, bin, value) cell of a mutation. Start is the
// width-aligned bin start in unix seconds — aligned at commit time, so
// replay's re-flooring is the identity and the op lands in the same bin.
type BinOp struct {
	User  string
	Start int64
	Value float64
}

// Mutation is one replayable usage-state change.
type Mutation struct {
	Kind MutationKind
	// Site is the peer site of a MutRemoteSet ("" otherwise).
	Site string
	// Ops are the bin operations (add or set, per Kind).
	Ops []BinOp
	// Watermark is the peer watermark after a MutRemoteSet, in unix
	// nanoseconds (0 otherwise).
	Watermark int64
	// Blob is the policy JSON of a MutPolicy (nil otherwise).
	Blob []byte
}

// Records converts the mutation's ops into exchange records attributed to
// site — the bridge back into the histogram batch primitives on replay.
func (m *Mutation) Records(site string) []Record {
	out := make([]Record, len(m.Ops))
	for i, op := range m.Ops {
		out[i] = Record{
			User:          op.User,
			Site:          site,
			IntervalStart: time.Unix(op.Start, 0).UTC(),
			CoreSeconds:   op.Value,
		}
	}
	return out
}

// BinOps converts records into bin ops, the inverse of Records. Bin starts
// are whole seconds, so Unix() loses nothing.
func BinOps(recs []Record) []BinOp {
	ops := make([]BinOp, len(recs))
	for i, r := range recs {
		ops[i] = BinOp{User: r.User, Start: r.IntervalStart.Unix(), Value: r.CoreSeconds}
	}
	return ops
}

// EncodedSize returns an upper bound on AppendBinary's output size, so
// callers can reserve the buffer in one allocation. An op counts its whole
// name (the prefix it shares is not subtracted) and the exact varint lengths
// of its start delta and value, rather than ten bytes for every varint: a
// 100k-op batch of ten-byte names reserves ≈1.8 MB, not ≈5.
func (m *Mutation) EncodedSize() int {
	n := 2 + 10 + len(m.Site) + 10 + 10 + 10 + len(m.Blob)
	prevStart := int64(0)
	for _, op := range m.Ops {
		u := uint64(len(op.User))
		n += 2*uvarintLen(u) + len(op.User) +
			uvarintLen(zigzag(op.Start-prevStart)) +
			uvarintLen(bits.ReverseBytes64(math.Float64bits(op.Value)))
		prevStart = op.Start
	}
	return n
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// zigzag maps a signed varint's value to the unsigned one it is written as.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// AppendBinary appends the versioned binary encoding of m to dst and
// returns the extended slice.
//
// The op stream is compressed against its own locality — WAL fsync cost is
// bandwidth-bound for large batches, so bytes on the wire are the durable
// ingest overhead. Three op-level encodings exploit what accounting streams
// look like:
//
//   - user names share long prefixes with their neighbours (user0001,
//     user0002, ...): each op stores the common-prefix length with the
//     previous op's user plus the remaining suffix;
//   - bin starts cluster in time: starts are zigzag deltas against the
//     previous op (first op against zero);
//   - core-second values come from duration*procs arithmetic and carry
//     mostly-zero low mantissa bytes: the float bits are byte-reversed and
//     uvarint-encoded, so round values take 3-5 bytes instead of 8 (a
//     full-entropy float costs 10 — rare in practice).
//
// The encoding is canonical: re-encoding a decoded mutation reproduces the
// bytes written here exactly. (The decoder also takes what no encoder
// writes, a padded varint or a shorter shared prefix than there is; such
// input re-encodes to the canonical form.)
func (m *Mutation) AppendBinary(dst []byte) []byte {
	dst = append(dst, mutationVersion, byte(m.Kind))
	dst = appendString(dst, m.Site)
	dst = binary.AppendUvarint(dst, uint64(len(m.Ops)))
	prevUser := ""
	prevStart := int64(0)
	for _, op := range m.Ops {
		p := commonPrefix(prevUser, op.User)
		dst = binary.AppendUvarint(dst, uint64(p))
		dst = appendString(dst, op.User[p:])
		dst = binary.AppendVarint(dst, op.Start-prevStart)
		dst = binary.AppendUvarint(dst, bits.ReverseBytes64(math.Float64bits(op.Value)))
		prevUser, prevStart = op.User, op.Start
	}
	dst = binary.AppendVarint(dst, m.Watermark)
	dst = binary.AppendUvarint(dst, uint64(len(m.Blob)))
	dst = append(dst, m.Blob...)
	return dst
}

func commonPrefix(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// DecodeMutation decodes one mutation encoded by AppendBinary. The whole
// input must be consumed — trailing garbage is an encoding error.
func DecodeMutation(b []byte) (*Mutation, error) {
	return decodeMutation(b, math.MaxInt)
}

// DecodePeerMutation is DecodeMutation for bytes another site sent: it also
// refuses a mutation whose user names expand past maxNameExpansion times the
// input, so what decoding allocates is bounded by what arrived. A WAL frame is
// not held to that: this site wrote it from names it already had in memory,
// and refusing one would be refusing to recover.
func DecodePeerMutation(b []byte) (*Mutation, error) {
	return decodeMutation(b, maxNameExpansion*len(b))
}

// decodeMutation decodes b, building at most maxNames bytes of user names.
func decodeMutation(b []byte, maxNames int) (*Mutation, error) {
	size := len(b)
	if len(b) < 2 {
		return nil, fmt.Errorf("usage: mutation record too short (%d bytes)", len(b))
	}
	if b[0] != mutationVersion {
		return nil, fmt.Errorf("usage: unsupported mutation version %d", b[0])
	}
	m := &Mutation{Kind: MutationKind(b[1])}
	if m.Kind < MutLocalAdd || m.Kind > MutLocalSet {
		return nil, fmt.Errorf("usage: unknown mutation kind %d", b[1])
	}
	b = b[2:]
	var err error
	if m.Site, b, err = readString(b); err != nil {
		return nil, err
	}
	nOps, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	// The input may come from a peer: bound the allocation by what the bytes
	// can hold before making it.
	if nOps > uint64(len(b))/minOpSize {
		return nil, fmt.Errorf("usage: mutation claims %d ops in %d bytes", nOps, len(b))
	}
	m.Ops = make([]BinOp, nOps)
	prevUser := ""
	prevStart := int64(0)
	names := 0
	for i := range m.Ops {
		p, rest, err := readUvarint(b)
		if err != nil {
			return nil, err
		}
		if p > uint64(len(prevUser)) {
			return nil, fmt.Errorf("usage: mutation op %d claims %d-byte prefix of %d-byte user", i, p, len(prevUser))
		}
		suffix, rest, err := readString(rest)
		if err != nil {
			return nil, err
		}
		// An op that repeats the previous user shares its string; any other
		// builds a name of its own.
		if p == uint64(len(prevUser)) && suffix == "" {
			m.Ops[i].User = prevUser
		} else {
			if names += int(p) + len(suffix); names > maxNames {
				return nil, fmt.Errorf("usage: mutation op %d: user names expand past %d times the %d bytes that carry them", i, maxNameExpansion, size)
			}
			m.Ops[i].User = prevUser[:p] + suffix
		}
		delta, rest, err := readVarint(rest)
		if err != nil {
			return nil, err
		}
		m.Ops[i].Start = prevStart + delta
		vbits, rest, err := readUvarint(rest)
		if err != nil {
			return nil, err
		}
		m.Ops[i].Value = math.Float64frombits(bits.ReverseBytes64(vbits))
		b = rest
		prevUser, prevStart = m.Ops[i].User, m.Ops[i].Start
	}
	if m.Watermark, b, err = readVarint(b); err != nil {
		return nil, err
	}
	nBlob, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	if nBlob > uint64(len(b)) {
		return nil, fmt.Errorf("usage: mutation claims %d blob bytes in %d", nBlob, len(b))
	}
	if nBlob > 0 {
		m.Blob = append([]byte(nil), b[:nBlob]...)
	}
	b = b[nBlob:]
	if len(b) != 0 {
		return nil, fmt.Errorf("usage: %d trailing bytes after mutation", len(b))
	}
	return m, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("usage: truncated mutation string (%d of %d bytes)", len(rest), n)
	}
	return string(rest[:n]), rest[n:], nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("usage: truncated mutation varint")
	}
	return v, b[n:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("usage: truncated mutation varint")
	}
	return v, b[n:], nil
}
