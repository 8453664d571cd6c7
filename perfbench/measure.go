package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is what one timed unit of work cost: wall and CPU seconds and
// heap bytes allocated, and the share of the machine's CPU time the
// hypervisor withheld meanwhile.
type sample struct {
	wall, cpu float64
	alloc     uint64
	steal     float64
}

// maxSteal is the steal share above which a sample measured the
// hypervisor more than the program.
const maxSteal = 0.1

// undisturbed returns the samples taken while the hypervisor withheld at
// most maxSteal of the CPU time, or all of them when fewer than three
// were.
func undisturbed(u []sample) []sample {
	var ok []sample
	for _, s := range u {
		if s.steal <= maxSteal {
			ok = append(ok, s)
		}
	}
	if len(ok) < 3 {
		return u
	}
	return ok
}

// meter brackets a unit of work in this process.
type meter struct {
	start time.Time
	cpu   float64
	alloc uint64
	stat  cpuTimes
}

func startMeter() meter {
	return meter{start: time.Now(), cpu: selfCPU(), alloc: totalAlloc(), stat: machineCPU()}
}

func (m meter) stop() sample {
	return sample{
		wall:  time.Since(m.start).Seconds(),
		cpu:   selfCPU() - m.cpu,
		alloc: totalAlloc() - m.alloc,
		steal: stealShare(m.stat, machineCPU()),
	}
}

// machineCPU reads /proc/stat; on failure the zero value makes every
// steal share 0.
func machineCPU() cpuTimes {
	t, _ := readCPUTimes("/proc/stat")
	return t
}

// rusageCPU is user plus system seconds of one rusage record.
func rusageCPU(ru *syscall.Rusage) float64 {
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// selfCPU is this process's user plus system seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

// peakRSSMB is this process's peak resident set in MiB: VmHWM from
// /proc/self/status, which restarts at exec. (ru_maxrss would carry the
// peak of the shell the benchmark replaced, or of the process a child
// was forked from.)
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// parseVmHWM reads the "VmHWM:  1234 kB" line of a /proc/<pid>/status
// document.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			break
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// gcState reads the GC cycle count and the runtime's GC and total CPU
// seconds, so a phase's GC share is a delta of two reads.
type gcState struct {
	cycles       uint32
	gcCPU, total float64
}

func readGC() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	g := gcState{cycles: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.total = s[1].Value.Float64()
	}
	return g
}

func (g gcState) sub(o gcState) gcState {
	return gcState{cycles: g.cycles - o.cycles, gcCPU: g.gcCPU - o.gcCPU, total: g.total - o.total}
}

// median of xs (the mean of the middle two for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p < 100) of xs,
// reported only when at least ten samples lie above it; ok is false
// otherwise, and for an empty input.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	rank = min(max(rank, 1), n)
	if n-rank < 10 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// cpuTimes are the aggregate counters of the first line of /proc/stat,
// in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// readCPUTimes parses the "cpu" line of a /proc/stat document.
func readCPUTimes(path string) (cpuTimes, error) {
	f, err := os.Open(path)
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}, fmt.Errorf("%s: empty", path)
	}
	return parseCPULine(sc.Text())
}

// parseCPULine reads "cpu user nice system idle iowait irq softirq steal
// ...". The total covers the first eight fields; guest time is already
// counted in user.
func parseCPULine(line string) (cpuTimes, error) {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("not an aggregate cpu line: %q", line)
	}
	var t cpuTimes
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("cpu line field %d: %w", i+1, err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealShare is the share of CPU time the hypervisor withheld between two
// reads; 0 when no time passed.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

const mib = 1 << 20
