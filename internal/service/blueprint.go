// Package service implements µqSim's intra-microservice model: a
// microservice is a set of execution stages (queue–consumer pairs with
// batching semantics), composed into execution paths, driven by one of two
// execution models:
//
//   - Simple (event-driven): workers are the instance's pinned cores; a
//     free core drains the latest non-empty stage queue, taking a whole
//     batch at a time (epoll/socket disciplines amortize their base cost
//     across the batch). Models NGINX, memcached, Thrift servers and the
//     per-machine network-interrupt service.
//
//   - Threaded (blocking, worker-per-request): a job is dispatched to a
//     thread and holds it for its entire service-local path; each CPU stage
//     additionally needs a core, and stages bound to an auxiliary pool
//     (e.g. "disk") hold the thread but release the core, modelling
//     blocking I/O. Context-switch overhead applies when threads exceed
//     cores. Models MongoDB-style backends.
package service

import (
	"fmt"

	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/queueing"
)

// ExecModel selects how an instance maps jobs onto hardware.
type ExecModel int

// Execution models from the paper (§III-B).
const (
	ModelSimple ExecModel = iota
	ModelThreaded
)

func (m ExecModel) String() string {
	switch m {
	case ModelSimple:
		return "simple"
	case ModelThreaded:
		return "multi-threaded"
	default:
		return fmt.Sprintf("ExecModel(%d)", int(m))
	}
}

// StageSpec describes one execution stage of a microservice.
type StageSpec struct {
	// Name identifies the stage (e.g. "epoll", "socket_read").
	Name string
	// Queue selects the stage's queue discipline.
	Queue queueing.Kind
	// PerConn is the epoll/socket per-connection batch parameter (the
	// paper's "queue parameter" N); ignored for single queues.
	PerConn int
	// Batching allows the stage to process more than one job per worker
	// dispatch. Without it each dispatch takes exactly one job.
	Batching bool
	// BatchLimit bounds total jobs per dispatch when batching (0: the
	// discipline's natural batch).
	BatchLimit int

	// Base is the per-dispatch cost, paid once per batch (nil: 0).
	// This is the quantity that batching amortizes.
	Base dist.Sampler
	// PerJob is the per-job cost, paid for every job in a batch (nil: 0).
	PerJob dist.Sampler
	// PerKB is an additional cost in nanoseconds per KB of request
	// payload, modelling socket reads proportional to bytes.
	PerKB float64

	// PoolName, when non-empty, executes the stage against the named
	// auxiliary pool on the instance's machine (e.g. "disk") instead of
	// a core. Pool stages are not frequency-scaled and never batch.
	PoolName string
}

// PathSpec is an execution path: the sequence of stage indices a job
// traverses inside the microservice.
type PathSpec struct {
	Name   string
	Stages []int
}

// Blueprint is the static description of a microservice, reusable across
// many instances (the paper's service.json).
type Blueprint struct {
	Name   string
	Stages []StageSpec
	Paths  []PathSpec

	// PathProbs optionally gives the paper's execution-path state
	// machine: when a request does not pin a path explicitly, the
	// runtime samples one with these weights (must align with Paths).
	// Example: MongoDB's cache-hit (memory) vs cache-miss (disk) paths.
	PathProbs []float64

	Model ExecModel
	// Threads is the worker-thread count for ModelThreaded.
	Threads int
	// CtxSwitch is the per-stage-dispatch overhead applied in the
	// threaded model when Threads exceeds allocated cores.
	CtxSwitch des.Time
}

// MaxStages bounds a blueprint's stage count: an instance tracks which
// stage queues hold jobs in one 64-bit mask.
const MaxStages = 64

// Validate checks internal consistency.
func (b *Blueprint) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("service: blueprint needs a name")
	}
	if len(b.Stages) == 0 {
		return fmt.Errorf("service %s: needs at least one stage", b.Name)
	}
	if len(b.Stages) > MaxStages {
		return fmt.Errorf("service %s: %d stages, at most %d are supported", b.Name, len(b.Stages), MaxStages)
	}
	if len(b.Paths) == 0 {
		return fmt.Errorf("service %s: needs at least one path", b.Name)
	}
	for i, p := range b.Paths {
		if len(p.Stages) == 0 {
			return fmt.Errorf("service %s: path %d is empty", b.Name, i)
		}
		for _, s := range p.Stages {
			if s < 0 || s >= len(b.Stages) {
				return fmt.Errorf("service %s: path %d references stage %d of %d",
					b.Name, i, s, len(b.Stages))
			}
		}
	}
	if len(b.PathProbs) > 0 {
		if len(b.PathProbs) != len(b.Paths) {
			return fmt.Errorf("service %s: %d path probabilities for %d paths",
				b.Name, len(b.PathProbs), len(b.Paths))
		}
		total := 0.0
		for i, p := range b.PathProbs {
			if p < 0 {
				return fmt.Errorf("service %s: negative probability for path %d", b.Name, i)
			}
			total += p
		}
		if total <= 0 {
			return fmt.Errorf("service %s: path probabilities must sum to a positive value", b.Name)
		}
	}
	if b.Model == ModelThreaded && b.Threads < 1 {
		return fmt.Errorf("service %s: threaded model needs Threads >= 1", b.Name)
	}
	for i, s := range b.Stages {
		if s.Base == nil && s.PerJob == nil && s.PerKB == 0 {
			return fmt.Errorf("service %s: stage %d (%s) has no cost model", b.Name, i, s.Name)
		}
		if s.PoolName != "" && s.Batching {
			return fmt.Errorf("service %s: pool stage %d (%s) cannot batch", b.Name, i, s.Name)
		}
	}
	return nil
}

// SingleStage is a convenience constructor for one-stage services (e.g. the
// tail-at-scale leaf servers): a single FIFO stage with the given per-job
// cost and one path through it.
func SingleStage(name string, cost dist.Sampler) *Blueprint {
	return &Blueprint{
		Name: name,
		Stages: []StageSpec{{
			Name:   "proc",
			Queue:  queueing.KindSingle,
			PerJob: cost,
		}},
		Paths: []PathSpec{{Name: "default", Stages: []int{0}}},
		Model: ModelSimple,
	}
}
