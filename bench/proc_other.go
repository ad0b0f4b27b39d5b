//go:build !linux

package main

import (
	"errors"
	"syscall"
)

// The benchmark reads process CPU time and peak RSS from /proc, so it
// measures on Linux only; elsewhere it still builds and these fail.
var errNoProc = errors.New("bench: process accounting needs Linux /proc")

func childProcAttr() *syscall.SysProcAttr { return nil }

func procCPUSeconds(int) (float64, error) { return 0, errNoProc }

func procPeakRSSMB(int) (float64, error) { return 0, errNoProc }

func selfCPUSeconds() float64 { return 0 }

func resetPeakRSS() {}
