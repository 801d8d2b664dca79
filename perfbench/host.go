package main

import (
	"runtime"
	"syscall"

	"rockcress/internal/analyze"
)

// host describes where and from what a result was measured.
type host struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Revision   string    `json:"vcs_revision"`
	Dirty      bool      `json:"vcs_dirty"`
	Seed       int64     `json:"seed"`
	Workload   *workload `json:"workload"`
}

func describeHost(seed int64, w *workload) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown", Seed: seed, Workload: w}
	if b := analyze.CurrentBuild(); b != nil && b.Revision != "" {
		h.Revision, h.Dirty = b.Revision, b.Dirty
	}
	return h
}

// peakRSSMB is the process's peak resident set so far (Linux getrusage
// reports it in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuNow is the process's CPU time so far (user + system, all threads).
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
