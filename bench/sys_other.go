//go:build !linux

package bench

import "errors"

var errNotLinux = errors.New("bench: process accounting needs Linux")

func selfCPUSec() (float64, error)    { return 0, errNotLinux }
func peakRSSMiB(int) (float64, error) { return 0, errNotLinux }
func procCPUSec(int) (float64, error) { return 0, errNotLinux }
