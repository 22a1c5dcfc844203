//go:build !linux

package core

// peakRSSBytes is not measured off Linux; 0 skips the RSS ceiling.
func peakRSSBytes() uint64 { return 0 }
