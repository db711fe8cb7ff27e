// Package zsimd is the simulation-as-a-service daemon: an HTTP JSON API
// that accepts experiment/sweep submissions, runs them on a bounded job
// queue backed by the runner worker pool, and serves results from a
// content-addressed store so identical cells are cache hits instead of
// re-simulations.
//
// The serving pipeline deliberately splits determinism from host state:
// a cell's result body is a pure function of its canonical spec (resolved
// parameters, scale, seed, experiment identity) plus the simulator code
// version, which is exactly the content-address key. Everything host-side
// (job IDs, wall-clock timestamps, queue occupancy) lives in the job
// envelope, never in the stored body, so a cache hit is byte-identical to
// a fresh simulation.
package zsimd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"zsim/internal/memsys"
	"zsim/internal/workload"
)

// CodeVersion names the simulator revision baked into every cache key.
// Bump it whenever a change can alter any simulated result, so stale
// bodies from an earlier revision can never be served as current.
const CodeVersion = "zsim-sim-v1"

// Cell types accepted by the daemon.
const (
	// TypeExperiment runs one entry of the regeneration index (E1..E20)
	// and returns its rendered artifact.
	TypeExperiment = "experiment"
	// TypeBenchmark runs one (application, memory system) cell and returns
	// the full overhead decomposition.
	TypeBenchmark = "benchmark"
	// TypeLitmus runs the litmus suite (Seed == 0) or one seeded random
	// litmus program (Seed != 0) on every memory system under the
	// conformance checker.
	TypeLitmus = "litmus"
)

// CellSpec is one unit of simulation work as submitted by a client. A job
// is a list of cells (a sweep is simply a multi-cell job); each cell is
// simulated, cached, and served independently.
type CellSpec struct {
	// Type is TypeExperiment, TypeBenchmark, or TypeLitmus.
	Type string `json:"type"`

	// Experiment is the regeneration-index ID (E1..E20) for TypeExperiment.
	Experiment string `json:"experiment,omitempty"`

	// App and System select the cell for TypeBenchmark.
	App    string `json:"app,omitempty"`
	System string `json:"system,omitempty"`

	// Scale is "small" (default) or "paper" for experiment/benchmark cells.
	Scale string `json:"scale,omitempty"`

	// Seed selects a random litmus program for TypeLitmus; 0 runs the
	// hand-written suite.
	Seed int64 `json:"seed,omitempty"`

	// Params is an optional machine-parameter override in the
	// ParamsFromJSON format; absent fields keep the paper defaults.
	Params json.RawMessage `json:"params,omitempty"`
}

// cell is a validated spec with its resolved parameter block and canonical
// cache key.
type cell struct {
	spec   CellSpec
	params memsys.Params
	key    string
}

// resolve validates a submitted spec against the daemon's trust boundary
// and computes its canonical content-address key. All parameter input goes
// through ParamsFromJSON (strict decoding + Validate), so malformed or
// out-of-range machine configurations are rejected here, before the job is
// accepted onto the queue.
func resolve(spec CellSpec) (cell, error) {
	params := memsys.Default(16)
	if len(spec.Params) > 0 {
		var err error
		params, err = memsys.ParamsFromJSON(spec.Params)
		if err != nil {
			return cell{}, err
		}
	}
	if spec.Scale == "" {
		spec.Scale = string(workload.ScaleSmall)
	}
	scale, err := workload.ParseScale(spec.Scale)
	if err != nil {
		return cell{}, err
	}
	switch spec.Type {
	case TypeExperiment:
		if _, err := workload.FindExperiment(spec.Experiment); err != nil {
			return cell{}, err
		}
		spec.App, spec.System, spec.Seed = "", "", 0
	case TypeBenchmark:
		if _, err := workload.NewApp(spec.App, scale); err != nil {
			return cell{}, err
		}
		if !knownKind(memsys.Kind(spec.System)) {
			return cell{}, fmt.Errorf("zsimd: unknown memory system %q (want one of %v)", spec.System, memsys.Kinds())
		}
		spec.Experiment, spec.Seed = "", 0
	case TypeLitmus:
		if spec.Seed < 0 {
			return cell{}, fmt.Errorf("zsimd: litmus seed %d, need >= 0", spec.Seed)
		}
		spec.Experiment, spec.App, spec.System = "", "", ""
	default:
		return cell{}, fmt.Errorf("zsimd: unknown cell type %q (want %q, %q, or %q)",
			spec.Type, TypeExperiment, TypeBenchmark, TypeLitmus)
	}
	key, err := cacheKey(spec, params)
	if err != nil {
		return cell{}, err
	}
	return cell{spec: spec, params: params, key: key}, nil
}

// knownKind reports whether k names one of the simulated memory systems.
func knownKind(k memsys.Kind) bool {
	for _, known := range memsys.Kinds() {
		if k == known {
			return true
		}
	}
	return false
}

// keyMaterial is the canonical serialization hashed into a content-address
// key: the normalized spec, the fully resolved parameter block (so two
// submissions that spell the same machine differently — partial files,
// field order, whitespace — collide onto one key), and the code version.
type keyMaterial struct {
	Version    string        `json:"version"`
	Type       string        `json:"type"`
	Experiment string        `json:"experiment,omitempty"`
	App        string        `json:"app,omitempty"`
	System     string        `json:"system,omitempty"`
	Scale      string        `json:"scale,omitempty"`
	Seed       int64         `json:"seed,omitempty"`
	Params     memsys.Params `json:"params"`
}

// cacheKey computes the cell's content address: hex(sha256(material)).
func cacheKey(spec CellSpec, params memsys.Params) (string, error) {
	m := keyMaterial{
		Version:    CodeVersion,
		Type:       spec.Type,
		Experiment: spec.Experiment,
		App:        spec.App,
		System:     spec.System,
		Scale:      spec.Scale,
		Seed:       spec.Seed,
		Params:     params,
	}
	data, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("zsimd: cache key: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
