package usage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// randMutation builds one random but well-formed mutation. Values cover the
// full float64 range including negative zero and denormals; starts cover
// negative (pre-epoch) bins, which exercises the zigzag encoding.
func randMutation(rng *rand.Rand) *Mutation {
	kinds := []MutationKind{MutLocalAdd, MutLocalBatch, MutRemoteSet, MutPolicy, MutLocalSet}
	m := &Mutation{Kind: kinds[rng.Intn(len(kinds))]}
	if m.Kind == MutPolicy {
		blob := make([]byte, rng.Intn(200))
		rng.Read(blob)
		m.Blob = blob
		return m
	}
	if m.Kind == MutRemoteSet {
		m.Site = randName(rng, "site")
		m.Watermark = rng.Int63() - rng.Int63()
	}
	n := rng.Intn(20)
	if m.Kind == MutLocalBatch {
		n = rng.Intn(200)
	}
	m.Ops = make([]BinOp, n)
	for i := range m.Ops {
		m.Ops[i] = BinOp{
			User:  randName(rng, "user"),
			Start: (rng.Int63n(1<<40) - 1<<39) * 3600,
			Value: randValue(rng),
		}
	}
	return m
}

func randName(rng *rand.Rand, prefix string) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789-_"
	b := make([]byte, 1+rng.Intn(24))
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return prefix + string(b)
}

func randValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // denormal
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-3))
	}
}

// TestMutationRoundTrip drives random mutation sequences through
// encode/decode. The encoding is canonical (one byte sequence per value),
// so re-encoding the decoded mutation must reproduce the input bytes
// exactly — a bitwise check that also covers NaN-free float fidelity
// without tripping over NaN != NaN.
func TestMutationRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			m := randMutation(rng)
			enc := m.AppendBinary(nil)
			dec, err := DecodeMutation(enc)
			if err != nil {
				t.Fatalf("seed %d mutation %d: decode: %v", seed, i, err)
			}
			re := dec.AppendBinary(nil)
			if !bytes.Equal(enc, re) {
				t.Fatalf("seed %d mutation %d: re-encoded bytes differ (%d vs %d bytes)", seed, i, len(enc), len(re))
			}
			if dec.Kind != m.Kind || dec.Site != m.Site || dec.Watermark != m.Watermark {
				t.Fatalf("seed %d mutation %d: header fields differ: %+v vs %+v", seed, i, dec, m)
			}
			for j := range m.Ops {
				if math.Float64bits(dec.Ops[j].Value) != math.Float64bits(m.Ops[j].Value) {
					t.Fatalf("seed %d mutation %d op %d: value bits differ", seed, i, j)
				}
			}
		}
	}
}

// TestMutationDecodeTruncated checks that every strict prefix of an encoded
// mutation fails to decode (no prefix is silently accepted as a shorter
// valid mutation) — the property the WAL's torn-write recovery leans on.
func TestMutationDecodeTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		m := randMutation(rng)
		enc := m.AppendBinary(nil)
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeMutation(enc[:cut]); err == nil {
				t.Fatalf("mutation %d: %d-byte prefix of %d bytes decoded without error", i, cut, len(enc))
			}
		}
	}
}

func TestMutationDecodeRejectsBadHeader(t *testing.T) {
	m := &Mutation{Kind: MutLocalAdd, Ops: []BinOp{{User: "u", Start: 3600, Value: 1}}}
	enc := m.AppendBinary(nil)

	bad := append([]byte(nil), enc...)
	bad[0] = 99 // version
	if _, err := DecodeMutation(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	bad = append([]byte(nil), enc...)
	bad[1] = 0 // kind below range
	if _, err := DecodeMutation(bad); err == nil {
		t.Fatal("kind 0 accepted")
	}
	bad[1] = 200 // kind above range
	if _, err := DecodeMutation(bad); err == nil {
		t.Fatal("kind 200 accepted")
	}
	if _, err := DecodeMutation(append(enc, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestMutationRecordsMatchLivePath asserts that replaying a mutation's
// Records through IngestBatch reproduces the exact histogram state the live
// Add path built — the bit-identity contract recovery depends on.
func TestMutationRecordsMatchLivePath(t *testing.T) {
	live := NewHistogram(time.Hour)
	replayed := NewHistogram(time.Hour)
	rng := rand.New(rand.NewSource(11))
	base := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 500; i++ {
		user := randName(rng, "user")
		at := base.Add(time.Duration(rng.Intn(100*3600)) * time.Second)
		v := rng.Float64() * 1e4
		addOne(live, user, at, v)
		m := &Mutation{Kind: MutLocalAdd, Ops: []BinOp{{User: user, Start: live.AlignStart(at), Value: v}}}
		enc := m.AppendBinary(nil)
		dec, err := DecodeMutation(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		replayed.IngestBatch(dec.Records("s"))
	}
	a, b := live.Records("s"), replayed.Records("s")
	if len(a) != len(b) {
		t.Fatalf("record count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].User != b[i].User || !a[i].IntervalStart.Equal(b[i].IntervalStart) ||
			math.Float64bits(a[i].CoreSeconds) != math.Float64bits(b[i].CoreSeconds) {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestMutationDecodeBoundsOpCount: the op count is read from the network now,
// so the ops slice it sizes must be bounded by what the bytes can hold — four
// bytes is the shortest op. An 8 MiB body that claims one op per byte (256 MiB
// of BinOps) is refused before anything is allocated; a body of four-byte ops
// that claims exactly what it holds still decodes, and re-encodes to itself.
func TestMutationDecodeBoundsOpCount(t *testing.T) {
	header := func(nOps uint64) []byte {
		b := []byte{mutationVersion, byte(MutRemoteSet)}
		b = appendString(b, "s")
		return binary.AppendUvarint(b, nOps)
	}
	const n = 8 << 20
	bomb := append(header(n), make([]byte, n)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeMutation(bomb)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body claiming one op per byte decoded")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Errorf("refusing the body allocated %d bytes", grown)
	}

	// 1000 shortest ops (same user "", same start, value 0), watermark 0, no blob.
	tight := append(header(1000), make([]byte, 1000*minOpSize+2)...)
	m, err := DecodeMutation(tight)
	if err != nil || len(m.Ops) != 1000 {
		t.Fatalf("a body of 1000 four-byte ops: %v (%d ops)", err, len(m.Ops))
	}
	if !bytes.Equal(m.AppendBinary(nil), tight) {
		t.Error("re-encoding the four-byte ops does not reproduce the input")
	}
	if _, err := DecodeMutation(append(header(1001), make([]byte, 1000*minOpSize+2)...)); err == nil {
		t.Error("1001 ops claimed in the bytes of 1000 decoded")
	}
}

// TestDecodePeerMutationBoundsNames: prefix compression lets an op of a few
// bytes spell out a whole long user name, so bytes from another site are held
// to maxNameExpansion bytes of names per byte of body. A body built around one
// 1 KiB name is refused before its names are built; the same bytes still decode
// as a WAL frame, which this site wrote itself; and real exports — long names
// that differ in a trailing counter, many bins of one long-named user — pass.
func TestDecodePeerMutationBoundsNames(t *testing.T) {
	export := func(users, bins, nameLen int) []byte {
		m := Mutation{Kind: MutRemoteSet, Site: "s"}
		for u := 0; u < users; u++ {
			name := fmt.Sprintf("%s%06d", strings.Repeat("n", nameLen-6), u)
			for b := 0; b < bins; b++ {
				m.Ops = append(m.Ops, BinOp{User: name, Start: int64(b) * 3600, Value: float64(600 * (1 + u%7))})
			}
		}
		return m.AppendBinary(nil)
	}

	bomb := export(10000, 1, 1024) // ≈80 KB of body, 10 MB of names
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodePeerMutation(bomb)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "user names expand") {
		t.Fatalf("%d bytes that spell out 10 MB of names: %v", len(bomb), err)
	}
	// 32-byte BinOps for ops of at least 4 bytes, the suffixes, and the names.
	if grown, limit := after.TotalAlloc-before.TotalAlloc, uint64((maxNameExpansion+10)*len(bomb)); grown > limit {
		t.Errorf("refusing the %d-byte body allocated %d bytes, want at most %d", len(bomb), grown, limit)
	}
	if m, err := DecodeMutation(bomb); err != nil || len(m.Ops) != 10000 {
		t.Errorf("the same bytes as a WAL frame: %v", err)
	}

	for _, tc := range []struct {
		name                 string
		users, bins, nameLen int
	}{
		{"ten-byte names", 5000, 2, 10},
		{"hundred-byte names with a counter", 5000, 1, 100},
		{"one long name, many bins", 1, 5000, 4096},
	} {
		body := export(tc.users, tc.bins, tc.nameLen)
		m, err := DecodePeerMutation(body)
		if err != nil || len(m.Ops) != tc.users*tc.bins {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !bytes.Equal(m.AppendBinary(nil), body) {
			t.Errorf("%s: re-encoding does not reproduce the body", tc.name)
		}
	}
}
