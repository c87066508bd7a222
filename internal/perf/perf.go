// Package perf is the benchmark-trajectory subsystem: it runs named
// workload families (shuffle matching-records in the ShuffleBench
// style, stream sustained-throughput with checkpoint cost, a YCSB-ish
// KV read/write mix, terasort, the star-schema query suite, gray-failure
// availability) under fixed seeds, samples time-windowed throughput and
// latency percentiles, and writes versioned BENCH_<family>.json files
// that CI diffs against the committed trajectory. The split that makes
// this workable is Shape vs Metrics: Shape fields (record counts,
// checksums, checkpoint bytes, window counts) are pure functions of the
// seed and must match exactly — a mismatch means the workload changed,
// not its speed — while Metrics fields (throughput, latency percentiles)
// carry wall-clock noise and are compared against a relative threshold
// by the differ (diff.go).
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump on any
// incompatible change; the differ refuses to compare across versions.
const SchemaVersion = 1

// Window is one time-window of the trajectory. StartNs is the window's
// offset from the run epoch (wall or virtual, per family); latency
// fields are nanoseconds.
type Window struct {
	StartNs int64   `json:"start_ns"`
	Count   int64   `json:"count"`
	PerSec  float64 `json:"per_sec"`
	MeanNs  float64 `json:"mean_ns"`
	P50Ns   int64   `json:"p50_ns"`
	P95Ns   int64   `json:"p95_ns"`
	P99Ns   int64   `json:"p99_ns"`
	P999Ns  int64   `json:"p999_ns"`
	MaxNs   int64   `json:"max_ns"`
}

// Env records where a result was produced. The differ ignores it — it
// exists so a surprising number in a committed baseline can be traced
// to the toolchain and revision that produced it.
type Env struct {
	GoVersion string `json:"go_version"`
	GitRev    string `json:"git_rev"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

// Result is one benchmark run of one family, the unit BENCH_<family>.json
// stores.
type Result struct {
	Schema int    `json:"schema"`
	Family string `json:"family"`
	// Params pin the workload configuration (sizes, seed, transport).
	// The differ hard-fails on any mismatch: comparing runs of different
	// workloads is meaningless.
	Params map[string]string `json:"params"`
	Env    Env               `json:"env"`
	// Windows is the per-window series — the trajectory proper.
	Windows []Window `json:"windows"`
	// Shape holds seed-deterministic workload invariants (record counts,
	// checksums, committed checkpoints). Exact-match in the differ.
	Shape map[string]int64 `json:"shape"`
	// Metrics holds wall-noisy summary numbers (throughput, latency
	// percentiles). Threshold-compared in the differ; names ending in
	// "_per_sec" regress downward, names ending in "_ns" regress upward.
	Metrics map[string]float64 `json:"metrics"`
}

// Filename returns the canonical baseline file name for a family.
func Filename(family string) string {
	return fmt.Sprintf("BENCH_%s.json", family)
}

// CaptureEnv fills an Env from the running toolchain. The git revision
// comes from BENCH_GIT_REV when set (CI exports it), else best-effort
// `git rev-parse`; "unknown" when neither works.
func CaptureEnv() Env {
	rev := os.Getenv("BENCH_GIT_REV")
	if rev == "" {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(out))
		}
	}
	if rev == "" {
		rev = "unknown"
	}
	return Env{
		GoVersion: runtime.Version(),
		GitRev:    rev,
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
	}
}

// Encode renders the result as stable, indented JSON (struct field
// order is fixed; map keys are sorted by encoding/json).
func (r *Result) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the result to dir/BENCH_<family>.json and returns
// the path.
func (r *Result) WriteFile(dir string) (string, error) {
	b, err := r.Encode()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, Filename(r.Family))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Load reads a result file and validates its schema version.
func Load(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("perf: %s: schema %d, this build speaks %d",
			path, r.Schema, SchemaVersion)
	}
	if r.Family == "" {
		return nil, fmt.Errorf("perf: %s: missing family", path)
	}
	return &r, nil
}
