package wire

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
)

// batchFixture is an answer as fcs.Service.PriorityBatch gives it: entries in
// request order, a duplicate answered twice, unknown users missing, vectors
// of different lengths, and floats that need all 64 bits.
func batchFixture() ([]string, FairshareBatchResponse) {
	at := time.Date(2024, 1, 15, 3, 4, 5, 678901234, time.UTC)
	users := []string{"alice", "ghost", "bob", "alice", "", "zoë/Ω", "nobody"}
	resp := FairshareBatchResponse{
		Projection: "percental",
		ComputedAt: at,
		Entries: []FairshareResponse{
			{User: "alice", Value: 0.1 + 0.2, Priority: -1.5, Vector: []float64{math.Pi, math.Copysign(0, -1), 1e-300}, ComputedAt: at},
			{User: "bob", Value: math.Nextafter(1, 0), Priority: 3, Vector: []float64{2}, ComputedAt: at},
			{User: "alice", Value: 0.1 + 0.2, Priority: -1.5, Vector: []float64{math.Pi, math.Copysign(0, -1), 1e-300}, ComputedAt: at},
			{User: "", ComputedAt: at},
			{User: "zoë/Ω", Value: 1, Priority: math.MaxFloat64, Vector: []float64{math.SmallestNonzeroFloat64, 7}, ComputedAt: at},
		},
		Missing: []string{"ghost", "nobody"},
	}
	return users, resp
}

// appendBatch is AppendFairshareBatch for an answer known to be in order.
func appendBatch(tb testing.TB, users []string, resp FairshareBatchResponse) []byte {
	tb.Helper()
	b, err := AppendFairshareBatch(nil, users, resp)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// sameBatch compares two answers bit for bit.
func sameBatch(a, b FairshareBatchResponse) error {
	if a.Projection != b.Projection || !a.ComputedAt.Equal(b.ComputedAt) {
		return fmt.Errorf("header %q@%v vs %q@%v", a.Projection, a.ComputedAt, b.Projection, b.ComputedAt)
	}
	if !slices.Equal(a.Missing, b.Missing) || len(a.Entries) != len(b.Entries) {
		return fmt.Errorf("missing %q / %d entries vs %q / %d entries", a.Missing, len(a.Entries), b.Missing, len(b.Entries))
	}
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if x.User != y.User || math.Float64bits(x.Value) != math.Float64bits(y.Value) ||
			math.Float64bits(x.Priority) != math.Float64bits(y.Priority) ||
			!slices.Equal(bits(x.Vector), bits(y.Vector)) || !x.ComputedAt.Equal(y.ComputedAt) {
			return fmt.Errorf("entry %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

func TestBatchBodiesRoundTrip(t *testing.T) {
	users, resp := batchFixture()
	got, err := DecodeUsers(AppendUsers(nil, users))
	if err != nil || !slices.Equal(got, users) {
		t.Fatalf("users: %q, %v; want %q", got, err, users)
	}
	body := appendBatch(t, users, resp)
	dec, err := DecodeFairshareBatch(body, users)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBatch(dec, resp); err != nil {
		t.Fatal(err)
	}
	// One snapshot answers the batch: every entry carries the same instant,
	// comparable with == (a monotonic reading never travels).
	for _, e := range dec.Entries {
		if e.ComputedAt != dec.ComputedAt {
			t.Fatalf("entry %q at %v, batch at %v", e.User, e.ComputedAt, dec.ComputedAt)
		}
	}
	// The answer names nobody.
	if bytes.Contains(body, []byte("alice")) || bytes.Contains(body, []byte("ghost")) {
		t.Error("the answer repeats the names it answers")
	}
	if pre := AppendUsers([]byte("xy"), users); !bytes.Equal(pre[:2], []byte("xy")) {
		t.Error("AppendUsers lost what dst held")
	}
	// Each encoder appends into the one buffer it sized. A build with the
	// race detector allocates once more per call, so the count is checked
	// only without it.
	if raceEnabled {
		return
	}
	for name, enc := range map[string]func(){
		"AppendUsers":          func() { AppendUsers(nil, users) },
		"AppendFairshareBatch": func() { AppendFairshareBatch(nil, users, resp) },
	} {
		if n := testing.AllocsPerRun(10, enc); n != 1 {
			t.Errorf("%s allocates %v times, want 1", name, n)
		}
	}
}

func TestBatchBodiesEdgeValues(t *testing.T) {
	for _, at := range []time.Time{{}, time.Unix(-1, 999_999_999).UTC(), time.Unix(1<<40, 1).UTC()} {
		body := appendBatch(t, nil, FairshareBatchResponse{ComputedAt: at})
		dec, err := DecodeFairshareBatch(body, nil)
		if err != nil || !dec.ComputedAt.Equal(at) || dec.ComputedAt.IsZero() != at.IsZero() {
			t.Errorf("ComputedAt %v came back %v (%v)", at, dec.ComputedAt, err)
		}
		if len(dec.Entries) != 0 || dec.Missing != nil {
			t.Errorf("empty batch decoded to %+v", dec)
		}
	}
	if users, err := DecodeUsers(AppendUsers(nil, nil)); err != nil || len(users) != 0 {
		t.Errorf("empty request decoded to %q, %v", users, err)
	}
}

// TestBatchAnswerRefusesOtherOrder: an answer that does not follow the
// request — entries swapped, an entry for a user not asked, a missing list of
// another length — is an encoder error, never a body with users dropped.
func TestBatchAnswerRefusesOtherOrder(t *testing.T) {
	users, resp := batchFixture()
	swapped := resp
	swapped.Entries = slices.Clone(resp.Entries)
	swapped.Entries[0], swapped.Entries[1] = swapped.Entries[1], swapped.Entries[0]
	stranger := resp
	stranger.Entries = append(slices.Clone(resp.Entries), FairshareResponse{User: "mallory"})
	short := resp
	short.Missing = resp.Missing[:1]
	for why, r := range map[string]FairshareBatchResponse{
		"entries out of request order":  swapped,
		"an entry for a user not asked": stranger,
		"one missing user unlisted":     short,
	} {
		if _, err := AppendFairshareBatch(nil, users, r); err == nil {
			t.Errorf("answer with %s encoded", why)
		}
	}
}

// TestBatchBodiesRefuseDamage cuts each body at every length and lies about
// counts and lengths: each must be an error, never a panic or a short answer.
func TestBatchBodiesRefuseDamage(t *testing.T) {
	users, resp := batchFixture()
	req := AppendUsers(nil, users)
	ans := appendBatch(t, users, resp)
	for n := 0; n < len(req); n++ {
		if got, err := DecodeUsers(req[:n]); err == nil {
			t.Errorf("request cut to %d of %d bytes decoded to %q", n, len(req), got)
		}
	}
	for n := 0; n < len(ans); n++ {
		if _, err := DecodeFairshareBatch(ans[:n], users); err == nil {
			t.Errorf("answer cut to %d of %d bytes decoded", n, len(ans))
		}
	}
	if _, err := DecodeUsers(append(slices.Clone(req), 0)); err == nil {
		t.Error("request with a trailing byte decoded")
	}
	if _, err := DecodeFairshareBatch(append(slices.Clone(ans), 0), users); err == nil {
		t.Error("answer with a trailing byte decoded")
	}
	if _, err := DecodeFairshareBatch(ans, users[1:]); err == nil {
		t.Error("an answer about 7 users decoded as one about 6")
	}
	for _, b := range [][]byte{{2, 0}, {batchVersion, 0xff, 0xff, 0xff, 0xff, 0x0f}, {batchVersion, 1, 5, 'a'}} {
		if _, err := DecodeUsers(b); err == nil {
			t.Errorf("request % x decoded", b)
		}
	}
	for _, c := range []struct {
		why   string
		users []string
		b     []byte
	}{
		{"another version", nil, []byte{2, 0, 0, 0, 0}},
		{"a second of 10⁹ nanoseconds", nil, []byte{batchVersion, 0, 0x80, 0x94, 0xeb, 0xdc, 0x03, 0, 0}},
		{"a projection longer than the body", nil, []byte{batchVersion, 0, 0, 9, 'p'}},
		{"a vector longer than the body", []string{"u"},
			[]byte{batchVersion, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
	} {
		if _, err := DecodeFairshareBatch(c.b, c.users); err == nil {
			t.Errorf("answer with %s decoded", c.why)
		}
	}
}

// FuzzDecodeUsers attacks the decoder that reads a batch request from the
// network. For any input it must not panic, must size nothing past what the
// bytes hold, and a decoded request must re-encode to at most the bytes it
// came from and decode again to the same names.
func FuzzDecodeUsers(f *testing.F) {
	users, _ := batchFixture()
	f.Add(AppendUsers(nil, users))
	f.Add(AppendUsers(nil, nil))
	f.Add([]byte{batchVersion, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		users, err := DecodeUsers(data)
		if err != nil {
			return
		}
		if len(users) > len(data) {
			t.Fatalf("%d users from %d bytes", len(users), len(data))
		}
		enc := AppendUsers(nil, users)
		if len(enc) > len(data) {
			t.Fatalf("canonical request is %d bytes, longer than the %d decoded", len(enc), len(data))
		}
		again, err := DecodeUsers(enc)
		if err != nil || !slices.Equal(again, users) {
			t.Fatalf("decode → encode → decode: %q, %v; want %q", again, err, users)
		}
	})
}

// FuzzDecodeFairshareBatch attacks the decoder that reads a batch answer
// from the network, for a request of n distinct users. For any input it must
// not panic; every requested user must be answered exactly once; the vectors
// must fit the bytes that carried them; and a decoded answer must re-encode
// to at most the bytes it came from and decode again to the same bits.
func FuzzDecodeFairshareBatch(f *testing.F) {
	names := func(n uint8) []string {
		users := make([]string, n)
		for i := range users {
			users[i] = fmt.Sprint("u", i)
		}
		return users
	}
	// The fixture's answer, renamed to distinct users.
	_, resp := batchFixture()
	users := names(7)
	resp.Entries = slices.Clone(resp.Entries)
	for i, j := range []int{0, 2, 3, 4, 5} {
		resp.Entries[i].User = users[j]
	}
	f.Add(uint8(7), appendBatch(f, users, resp))
	f.Add(uint8(0), appendBatch(f, nil, FairshareBatchResponse{}))
	f.Add(uint8(1), []byte{batchVersion, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		users := names(n)
		resp, err := DecodeFairshareBatch(data, users)
		if err != nil {
			return
		}
		if len(resp.Entries)+len(resp.Missing) != len(users) {
			t.Fatalf("%d entries and %d missing answer %d users", len(resp.Entries), len(resp.Missing), len(users))
		}
		floats := 0
		for _, e := range resp.Entries {
			floats += len(e.Vector)
		}
		if 8*floats > len(data) {
			t.Fatalf("%d vector elements from %d bytes", floats, len(data))
		}
		enc := appendBatch(t, users, resp)
		if len(enc) > len(data) {
			t.Fatalf("canonical answer is %d bytes, longer than the %d decoded", len(enc), len(data))
		}
		again, err := DecodeFairshareBatch(enc, users)
		if err != nil {
			t.Fatalf("re-decoding the canonical answer: %v", err)
		}
		if err := sameBatch(again, resp); err != nil {
			t.Fatalf("decode → encode → decode: %v", err)
		}
	})
}
