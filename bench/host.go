package main

// Host diagnostics and the reproducibility stamp. This box is a small
// shared sandbox: CPU steal and GC heap size explain most run-to-run
// movement, so every result carries them.

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stamp identifies what produced a result.
type stamp struct {
	Seed       uint64 `json:"seed"`
	Commit     string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	When       string `json:"when"`
}

func newStamp(seed uint64) stamp {
	return stamp{
		Seed:       seed,
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		When:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit asks git for HEAD; a checkout that is not a repository (the
// benchmark driver's) is stamped "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// cpuTicks reads the aggregate line of /proc/stat: total jiffies and the
// steal column (time the hypervisor ran someone else while we were
// runnable). Zeroes where /proc is absent.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // guest columns are already inside user/nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// processCPU is user+system CPU seconds of this process so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// high-water mark, so that a workload run after a larger one in the same
// process reports its own peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // absent off Linux: the mark is then cumulative
}

// peakRSSMB is the process's high-water resident set since resetPeakRSS.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// heapLiveMB forces a collection and reports what survived it.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// allocBytes is the cumulative bytes allocated by the process. Unlike
// ReadMemStats it does not stop the world, so stages can bracket
// themselves with it in a traced run.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hostWindow brackets the timed part of a run.
type hostWindow struct {
	total, steal, cpu float64
}

func openHostWindow() hostWindow {
	t, s := cpuTicks()
	return hostWindow{total: t, steal: s, cpu: processCPU()}
}

// close returns the steal share of all CPU time and this process's CPU
// seconds since the window opened.
func (w hostWindow) close() (stealShare, cpuSeconds float64) {
	t, s := cpuTicks()
	if t > w.total {
		stealShare = (s - w.steal) / (t - w.total)
	}
	return stealShare, processCPU() - w.cpu
}
