package durability

// WAL segment file format. A segment starts with an 8-byte magic and holds
// a sequence of length-prefixed, CRC-protected frames:
//
//	"AEQWAL01" [u32le len][u32le crc32(IEEE, payload)][payload] ...
//
// The only legal damage is a torn tail on the LAST segment — the frame a
// crash interrupted mid-write. Recovery truncates the file back to the last
// complete record and carries on. Everything else is loud: a complete frame
// whose CRC does not match its payload, a torn frame in a non-final segment
// (segments are only rotated after the next one exists, so a short middle
// segment means real corruption), or a bad magic. A snapshot is written in
// the same format and read like a middle segment (snapshot.go).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/usage"
)

const (
	walMagic = "AEQWAL01"
	// frameHeaderSize is the per-record overhead: u32 length + u32 CRC.
	frameHeaderSize = 8
)

// segmentName returns the file name of the WAL segment with the given index.
func segmentName(idx uint64) string {
	return fmt.Sprintf("wal-%08d.log", idx)
}

// parseSegmentName extracts the index from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(mid) != 8 {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// appendFrame appends m to dst as one frame. The payload is encoded in place
// behind a reserved header whose length and CRC are backfilled, so a
// multi-MB mutation is not copied a second time; with dst's capacity
// reserved up front (frameHeaderSize + m.EncodedSize()) nothing grows.
func appendFrame(dst []byte, m *usage.Mutation) []byte {
	at := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, 0)
	dst = m.AppendBinary(dst)
	payload := dst[at+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[at+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// createSegment creates a fresh segment file with the magic written and the
// handle positioned for appending.
func createSegment(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// CorruptionError reports a CRC mismatch or structural damage at a specific
// byte offset of a WAL segment or snapshot — unrecoverable, and deliberately
// loud.
type CorruptionError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("durability: corrupt %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// scanSegment reads every complete frame of the segment at path, invoking fn
// with each payload in order. isLast marks the newest segment, where a torn
// (incomplete) tail frame is legal crash damage: scanSegment reports the
// offset to truncate back to via keep. For complete-but-CRC-mismatched
// frames it always returns a *CorruptionError naming the offset, and for a
// torn frame anywhere else (a middle segment, a snapshot) likewise.
func scanSegment(path string, isLast bool, fn func(payload []byte) error) (keep int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return 0, &CorruptionError{Path: path, Offset: 0, Reason: "bad magic"}
	}
	off := int64(len(walMagic))
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, nil
		}
		if len(rest) < frameHeaderSize {
			if isLast {
				return off, nil // torn header at tail: truncate here
			}
			return 0, &CorruptionError{Path: path, Offset: off, Reason: "torn frame header"}
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if uint64(n) > uint64(len(rest)-frameHeaderSize) {
			if isLast {
				return off, nil // torn payload at tail: truncate here
			}
			return 0, &CorruptionError{Path: path, Offset: off, Reason: "torn frame payload"}
		}
		payload := rest[frameHeaderSize : frameHeaderSize+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return 0, &CorruptionError{Path: path, Offset: off, Reason: "frame CRC mismatch"}
		}
		if err := fn(payload); err != nil {
			return 0, fmt.Errorf("durability: %s at offset %d: %w", path, off, err)
		}
		off += frameHeaderSize + int64(n)
	}
}

// listSegments returns the indices of all WAL segments in dir, sorted
// ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if idx, ok := parseSegmentName(e.Name()); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// removeStale deletes leftover temporary files (interrupted snapshot
// writes) from dir.
func removeStale(dir string) error {
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return err
	}
	for _, t := range tmps {
		if err := os.Remove(t); err != nil {
			return err
		}
	}
	return nil
}
