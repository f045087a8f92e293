package usage

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeMutation attacks the decoder that reads WAL frames from disk and,
// as the body of a peer pull, bytes from the network. For any input it must
// not panic; what it sizes from a count in the input (the ops slice, the blob)
// must fit the bytes that were there; bytes from a peer must not build more
// than maxNameExpansion bytes of user names per byte of input, and must decode
// to what the WAL's entry point decodes or be refused for that reason alone;
// and a decoded mutation must survive encode → decode unchanged, with the
// second encoding equal to the first (the encoder is canonical even where the
// decoder tolerates a padded varint or a shorter shared prefix than possible).
//
// The seed corpus under testdata/fuzz/FuzzDecodeMutation holds a valid frame
// of every kind and one input per way a frame can be cut short or lie about
// its lengths.
func FuzzDecodeMutation(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMutation(data)
		pm, perr := DecodePeerMutation(data)
		if err != nil {
			if perr == nil {
				t.Fatal("bytes that are no WAL frame decoded as a peer's")
			}
			return
		}
		if len(m.Ops) > len(data)/minOpSize || len(m.Blob) > len(data) {
			t.Fatalf("%d ops and a %d-byte blob decoded from %d bytes", len(m.Ops), len(m.Blob), len(data))
		}
		// Every op whose user differs from the one before built a string.
		names, prev := 0, ""
		for _, op := range m.Ops {
			if op.User != prev {
				names += len(op.User)
			}
			prev = op.User
		}
		enc := m.AppendBinary(nil)
		switch {
		case perr == nil && names > maxNameExpansion*len(data):
			t.Fatalf("a peer's %d bytes built %d bytes of user names", len(data), names)
		case perr == nil && !bytes.Equal(pm.AppendBinary(nil), enc):
			t.Fatal("the same bytes decode differently from a peer and from the WAL")
		case perr != nil && bytes.Equal(enc, data) && names <= maxNameExpansion*len(data):
			t.Fatalf("a canonical body with %d bytes of names in %d refused: %v", names, len(data), perr)
		}
		if len(enc) > len(data) {
			t.Fatalf("canonical encoding is %d bytes, longer than the %d decoded", len(enc), len(data))
		}
		again, err := DecodeMutation(enc)
		if err != nil {
			t.Fatalf("re-decoding the canonical encoding: %v", err)
		}
		if !bytes.Equal(again.AppendBinary(nil), enc) {
			t.Fatal("encode → decode → encode is not a fixed point")
		}
		if again.Kind != m.Kind || again.Site != m.Site || again.Watermark != m.Watermark ||
			!bytes.Equal(again.Blob, m.Blob) || len(again.Ops) != len(m.Ops) {
			t.Fatalf("decode → encode → decode changed the mutation: %+v vs %+v", again, m)
		}
		for i := range m.Ops {
			a, b := again.Ops[i], m.Ops[i]
			if a.User != b.User || a.Start != b.Start || math.Float64bits(a.Value) != math.Float64bits(b.Value) {
				t.Fatalf("decode → encode → decode changed op %d: %+v vs %+v", i, a, b)
			}
		}
	})
}
