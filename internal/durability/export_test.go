package durability

import "os"

// SwapSegment replaces d's active segment handle with f and returns the one
// it held: how tests make the next append or fsync fail — with a closed or
// read-only file — from inside and outside the package.
func SwapSegment(d *Log, f *os.File) *os.File {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.seg
	d.seg = f
	return old
}
