package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// environment is recorded with every result: numbers from different boxes,
// Go versions or seeds are not comparable, and -compare says so.
type environment struct {
	NProc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	CPUModel     string         `json:"cpu_model"`
	Kernel       string         `json:"kernel"`
	GitCommit    string         `json:"git_commit"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Clients      int            `json:"clients"`
	Units        map[string]int `json:"stream_units"`
	TraceUnits   map[string]int `json:"trace_units"`
	BuildSeconds float64        `json:"daemon_build_seconds"`
	Smoke        bool           `json:"smoke,omitempty"`
}

func captureEnv(o options, build time.Duration) environment {
	e := environment{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		Kernel:       firstLineOfFile("/proc/sys/kernel/osrelease"),
		GitCommit:    gitCommit(),
		Seed:         o.seed,
		Seconds:      o.seconds,
		Clients:      clients,
		Units:        make(map[string]int),
		TraceUnits:   make(map[string]int),
		BuildSeconds: build.Seconds(),
		Smoke:        o.smoke,
	}
	for _, w := range workloads {
		e.Units[w.name], e.TraceUnits[w.name] = w.sizes(o.smoke)
	}
	return e
}

func firstLineOfFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return firstLine(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checked-out commit, or "unknown" outside a git checkout
// (the benchmark driver's checkouts are plain directories).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
