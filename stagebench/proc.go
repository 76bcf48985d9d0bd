package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// procStats are process-wide counters read before and after the timed phase.
type procStats struct {
	cpuSeconds   float64 // user + system, getrusage
	gcCycles     uint64
	gcCPUSeconds float64
}

func readProcStats() procStats {
	var ru syscall.Rusage
	var s procStats
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpuSeconds = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	sample := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(sample)
	s.gcCycles = sample[0].Value.Uint64()
	s.gcCPUSeconds = sample[1].Value.Float64()
	return s
}

// heapAllocBytes is the cumulative bytes allocated on the heap, the counter
// behind runtime.MemStats.TotalAlloc, read without stopping the world.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// statusField reads one "Name:  123 kB" line of /proc/self/status in bytes.
func statusField(name string) uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), name+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		kb, _ := strconv.ParseUint(fields[0], 10, 64)
		return kb << 10
	}
	return 0
}

// peakMemoryBytes is the process's resident-set high-water mark.
func peakMemoryBytes() uint64 { return statusField("VmHWM") }

// resetPeakMemory asks the kernel to restart the high-water mark from the
// current resident set, so that the peak is the measured phase's and not
// the reference computation's. Where the kernel refuses, the mark simply
// keeps counting from process start; the record says which happened.
func resetPeakMemory() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// fsName names the filesystem a directory lives on, so that a record says
// whether store writes went to memory or to a device.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
