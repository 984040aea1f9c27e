// Package farm is the simulation-farm service: a long-running server
// that accepts sweep jobs — machine configurations × workloads × seeds ×
// fault plans, litmus batteries, and simulator-speed bench cells — over
// HTTP, queues the cells on one FIFO that in-process executors and
// remote worker processes both drain, and dedupes execution through a
// content-addressed result cache keyed on the machine-config digest,
// workload-parameters digest, seed, and code fingerprint
// (internal/farm/cachekey). Because the simulator is
// enforced-deterministic, a cell's result is a pure function of its key:
// the cache is exact, results are bit-identical across restarts, and a
// resubmitted job costs only the cells nobody has run before. Durability
// rides on the same fsynced JSONL journal the sweep CLIs use for
// -resume (internal/par): a server killed mid-job loses at worst the
// cells still queued, and the next start re-queues interrupted jobs from
// the journal.
package farm

// The package's mutex acquisition order, enforced by vbrlint's
// lockorder analyzer. The locks are deliberately never nested today
// (every helper releases one before taking the next); the declared
// order is the contract new code must follow if it ever has to hold
// two at once: server/cache/metrics "mu" first, then the cell queue's
// leaseMu, then a worker's heartbeat hbMu.
//
//vbr:lockorder mu leaseMu hbMu

import (
	"fmt"

	"vbmo/internal/config"
	"vbmo/internal/fault"
	"vbmo/internal/litmus"
	"vbmo/internal/workload"
)

// JobSpec is one submitted job: any non-empty subset of the three
// sections. A job's identity is the content digest of this spec plus
// the code-version fingerprint, so resubmitting the same spec to the
// same build is idempotent.
type JobSpec struct {
	// Litmus sweeps the memory-ordering battery (tests × configs × runs).
	Litmus *LitmusSpec `json:"litmus,omitempty"`
	// Matrix runs §5.1 performance cells (machines × workloads × samples).
	Matrix *MatrixSpec `json:"matrix,omitempty"`
	// Bench runs steady-state simulator-speed cells.
	Bench *BenchSpec `json:"bench,omitempty"`
}

// LitmusSpec selects a litmus sweep. Cell seeds derive exactly as
// litmus.Sweep derives them (litmus.CellSeed over the test × config
// indices), so a job naming the full battery and configuration list in
// their canonical order reproduces the litmus CLI bit-identically.
type LitmusSpec struct {
	// Tests names battery tests (empty = the full battery, in order).
	Tests []string `json:"tests,omitempty"`
	// Configs names sweep configurations (empty = all, in order).
	Configs []string `json:"configs,omitempty"`
	// Runs is the perturbed executions per (test, config) cell.
	Runs int `json:"runs"`
	// Seed is the sweep's base seed.
	Seed uint64 `json:"seed"`
	// Cores, when positive, widens every test to an SMP this size.
	Cores int `json:"cores,omitempty"`
	// Fault optionally injects faults into every run.
	Fault *fault.Config `json:"fault,omitempty"`
}

// MatrixSpec selects §5.1 performance cells with the same cell
// enumeration and seed derivation as experiments.Run: uniprocessor
// workloads on one core at Seed, multiprocessor workloads on MPCores
// with Samples samples at Seed + sample*101.
type MatrixSpec struct {
	// Machines names registry machines (empty = the five §5.1 configs).
	Machines []string `json:"machines,omitempty"`
	// Workloads restricts the workload set (empty = all non-bench-only).
	Workloads []string `json:"workloads,omitempty"`
	UniInstr  uint64   `json:"uni_instr"`
	MPInstr   uint64   `json:"mp_instr"`
	MPCores   int      `json:"mp_cores"`
	Samples   int      `json:"samples"`
	Seed      uint64   `json:"seed"`
}

// BenchSpec selects simulator-speed cells: warm a system past its
// compulsory-miss phase, reset statistics, then run a fixed
// committed-instruction window and report cycles, instructions, and
// IPC. The measurement contains no wall-clock term, so bench cells are
// as cacheable as any other.
type BenchSpec struct {
	Machines  []string `json:"machines"`
	Workloads []string `json:"workloads"`
	Cores     int      `json:"cores"`
	// Warm is the committed-instruction warmup before measurement.
	Warm uint64 `json:"warm"`
	// Window is the measured committed-instruction window.
	Window uint64 `json:"window"`
	Seed   uint64 `json:"seed"`
}

// Validate resolves every name in the spec against the registries,
// returning the first unknown so submission fails fast with a clear
// message instead of a worker panic, and rejects a job that would
// expand to more than maxJobCells cells.
func (s JobSpec) Validate() error {
	if s.Litmus == nil && s.Matrix == nil && s.Bench == nil {
		return fmt.Errorf("farm: empty job (no litmus, matrix, or bench section)")
	}
	if l := s.Litmus; l != nil {
		if l.Runs <= 0 {
			return fmt.Errorf("farm: litmus.runs must be positive")
		}
		for _, name := range l.Tests {
			if _, ok := litmus.ByName(name); !ok {
				return fmt.Errorf("farm: unknown litmus test %q", name)
			}
		}
		for _, name := range l.Configs {
			if _, ok := litmus.ConfigByName(name); !ok {
				return fmt.Errorf("farm: unknown litmus config %q", name)
			}
		}
		if l.Cores < 0 || l.Cores > config.MaxCores {
			return fmt.Errorf("farm: litmus.cores must be between 0 and %d", config.MaxCores)
		}
	}
	if m := s.Matrix; m != nil {
		if m.UniInstr == 0 && m.MPInstr == 0 {
			return fmt.Errorf("farm: matrix needs uni_instr or mp_instr")
		}
		for _, name := range m.Machines {
			if _, ok := config.ByName(name); !ok {
				return fmt.Errorf("farm: unknown machine %q", name)
			}
		}
		for _, name := range m.Workloads {
			if _, ok := workload.ByName(name); !ok {
				return fmt.Errorf("farm: unknown workload %q", name)
			}
		}
		if m.MPCores < 0 || m.MPCores > config.MaxCores {
			return fmt.Errorf("farm: matrix.mp_cores must be between 0 and %d", config.MaxCores)
		}
	}
	if b := s.Bench; b != nil {
		if b.Window == 0 {
			return fmt.Errorf("farm: bench.window must be positive")
		}
		if len(b.Machines) == 0 || len(b.Workloads) == 0 {
			return fmt.Errorf("farm: bench needs explicit machines and workloads")
		}
		for _, name := range b.Machines {
			if _, ok := config.ByName(name); !ok {
				return fmt.Errorf("farm: unknown machine %q", name)
			}
		}
		for _, name := range b.Workloads {
			if _, ok := workload.ByName(name); !ok {
				return fmt.Errorf("farm: unknown workload %q", name)
			}
		}
		if b.Cores <= 0 || b.Cores > config.MaxCores {
			return fmt.Errorf("farm: bench.cores must be between 1 and %d", config.MaxCores)
		}
	}
	if s.cellCount() > maxJobCells {
		return fmt.Errorf("farm: job expands to more than %d cells", maxJobCells)
	}
	return nil
}
