package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// host is where a document was measured. Rows from hosts that differ in
// NumCPU or GOMAXPROCS are not comparable; Noisy marks a run that
// started on an already-loaded machine.
type host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Load1      float64 `json:"load1_at_start"`
	Noisy      bool    `json:"noisy"`
}

func hostFacts() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		// run.sh asks git; "unknown" in a checkout that is not a repository.
		Commit: os.Getenv("BENCH_COMMIT"),
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	h.Noisy = h.Load1 > float64(h.NumCPU)/2
	return h
}
