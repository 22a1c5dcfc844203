//go:build linux

package core

import "syscall"

// peakRSSBytes returns the process's resident-set high-water mark. Linux
// reports ru_maxrss in kilobytes.
func peakRSSBytes() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024
}
