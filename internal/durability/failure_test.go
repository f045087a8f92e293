package durability

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestFailedWritePoisonsLog: an append that fails — on a read-only or a
// closed handle, with or without half a frame already on disk — poisons the
// log. The commit's apply does not run; the segment is cut back to the last
// acknowledged frame (and when that cut fails too, the error names both
// causes); every later Commit and Snapshot is refused with ErrLogFailed
// without running apply or capture; and after Close the directory reopens to
// exactly the acknowledged commits and takes new ones.
func TestFailedWritePoisonsLog(t *testing.T) {
	for _, tc := range []struct {
		name     string
		half     bool // half a frame reached the file before the failure
		closed   bool // the handle is closed rather than read-only
		cutFails bool // the segment cannot be cut back either
	}{
		{name: "read-only handle"},
		{name: "half a frame appended", half: true},
		{name: "closed handle, cut fails", half: true, closed: true, cutFails: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := openTest(t, dir, SyncAlways)
			replayAll(t, d)
			commitN(t, d, 3, 0)
			path := filepath.Join(dir, segmentName(0))
			acked := fileSize(t, path)
			if tc.half {
				frame := appendFrame(nil, testMutation(3))
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(frame[:len(frame)/2]); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			bad, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer bad.Close()
			if tc.closed {
				bad.Close()
			}
			good := SwapSegment(d, bad)
			if tc.cutFails {
				// The segment is elsewhere while the log tries to cut it.
				if err := os.Rename(path, path+".away"); err != nil {
					t.Fatal(err)
				}
			}

			applied := false
			err = d.Commit(testMutation(3), func() { applied = true })
			if !errors.Is(err, ErrLogFailed) || !strings.Contains(err.Error(), "WAL append") {
				t.Fatalf("Commit on a failing segment = %v, want ErrLogFailed naming the append", err)
			}
			if got := strings.Contains(err.Error(), "cutting"); got != tc.cutFails {
				t.Errorf("error %q names a failed cut: %v, want %v", err, got, tc.cutFails)
			}
			if d.Failed() != err {
				t.Errorf("Failed() = %v, want the sticky %v", d.Failed(), err)
			}
			if err := d.Commit(testMutation(4), func() { applied = true }); !errors.Is(err, ErrLogFailed) {
				t.Errorf("commit after the failure = %v, want ErrLogFailed", err)
			}
			if applied {
				t.Error("apply ran for a commit that is not on disk")
			}
			if err := d.Snapshot(func() (*SnapshotState, error) {
				t.Error("a failed log captured a snapshot")
				return &SnapshotState{}, nil
			}); !errors.Is(err, ErrLogFailed) {
				t.Errorf("Snapshot on a failed log = %v, want ErrLogFailed", err)
			}
			if tc.cutFails {
				if err := os.Rename(path+".away", path); err != nil {
					t.Fatal(err)
				}
			} else if got := fileSize(t, path); got != acked {
				t.Errorf("segment is %d bytes after the failure, want the %d acknowledged", got, acked)
			}
			SwapSegment(d, good)
			d.Close()

			d2 := openTest(t, dir, SyncAlways)
			got := replayAll(t, d2)
			if len(got) != 3 {
				t.Fatalf("reopened log replays %d records, want the 3 acknowledged", len(got))
			}
			for i, m := range got {
				if !mutationsEqual(m, testMutation(i)) {
					t.Fatalf("record %d differs after reopen", i)
				}
			}
			commitN(t, d2, 1, 5)
		})
	}
}
