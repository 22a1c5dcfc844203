//go:build linux

package bench

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// selfCPUSec reports this process's user plus system CPU time.
func selfCPUSec() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime), nil
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMiB reads a running process's resident-set high-water mark (VmHWM)
// from /proc/<pid>/status. A child's getrusage ru_maxrss would not do: Go
// starts children with a vfork-style clone, and Linux carries the parent's
// high-water mark across exec into the child's.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bench: /proc/%d/status: %w", pid, err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/%d/status", pid)
}

// procCPUSec reads a running process's user plus system CPU time from
// /proc/<pid>/stat.
func procCPUSec(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis start at field 3, so utime and stime (14, 15) are 11 and 12.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: bad /proc/%d/stat", pid)
	}
	// The kernel reports clock ticks; USER_HZ is 100 on every Linux ABI Go
	// supports.
	return float64(ut+st) / 100, nil
}
