package durability

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzScanSegment attacks the segment framing (scanSegment: magic, length,
// CRC, torn tail) with arbitrary files. The input is written as a segment
// and scanned as a middle segment and as the last one. Neither scan may
// panic; a middle segment is accepted or refused with a *CorruptionError;
// the last segment is refused only with a *CorruptionError, and otherwise
// the keep offset it reports lies within the file and the file cut back to
// keep bytes scans again, as a last segment, to the same payloads with no
// error — the state recovery leaves behind after it truncates a torn tail.
// A middle segment that is accepted reads as the same payloads when last,
// with nothing to cut.
//
// The seed corpus under testdata/fuzz/FuzzScanSegment holds a valid
// two-frame segment, a torn tail, a flipped CRC, a length past the file and
// a bad magic.
func FuzzScanSegment(f *testing.F) {
	path := filepath.Join(f.TempDir(), segmentName(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		scan := func(isLast bool) (payloads [][]byte, keep int64, err error) {
			keep, err = scanSegment(path, isLast, func(p []byte) error {
				payloads = append(payloads, slices.Clone(p))
				return nil
			})
			return payloads, keep, err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptionError
		middle, _, merr := scan(false)
		if merr != nil && !errors.As(merr, &ce) {
			t.Fatalf("middle segment: %v, want a *CorruptionError", merr)
		}
		last, keep, err := scan(true)
		if err != nil {
			if !errors.As(err, &ce) {
				t.Fatalf("last segment: %v, want a *CorruptionError", err)
			}
			if merr == nil {
				t.Fatalf("accepted as a middle segment, refused as the last: %v", err)
			}
			return
		}
		if keep < int64(len(walMagic)) || keep > int64(len(data)) {
			t.Fatalf("keep %d outside the %d-byte file", keep, len(data))
		}
		if merr == nil && (keep != int64(len(data)) || !slices.EqualFunc(middle, last, slices.Equal)) {
			t.Fatalf("middle scan read %d payloads, last scan %d with keep %d of %d bytes",
				len(middle), len(last), keep, len(data))
		}
		if err := os.WriteFile(path, data[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		again, keep2, err := scan(true)
		if err != nil || keep2 != keep || !slices.EqualFunc(again, last, slices.Equal) {
			t.Fatalf("the file cut to %d bytes scans to %d payloads, keep %d, err %v; want %d payloads, keep %d, no error",
				keep, len(again), keep2, err, len(last), keep)
		}
	})
}
