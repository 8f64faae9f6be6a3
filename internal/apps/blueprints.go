// Package apps is µqSim's model library: calibrated stage-level models of
// the applications the paper evaluates (memcached, NGINX, MongoDB, Apache
// Thrift, a Social Network), and scenario builders that assemble each of
// the paper's experiments into a ready-to-run simulation.
//
// Calibration note: the paper parameterizes stages with processing-time
// histograms profiled on a real Xeon E5-2660 v3 testbed. Those profiles are
// not available here, so stages are parameterized with distributions of the
// same magnitude as the paper's plots (e.g. an NGINX webserver worth
// ~115 µs of CPU per request, saturating one core near 8.7 kQPS so four
// load-balanced webservers saturate near the paper's 35 kQPS). The shapes
// of the load–latency curves — who saturates first, how scaling shifts the
// knee — come from the queueing structure, not from these constants.
package apps

import (
	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/queueing"
	"uqsim/internal/service"
	"uqsim/internal/sim"
)

const us = 1000.0 // nanoseconds per microsecond, for sampler literals

// Memcached models the paper's Listing 1: epoll → socket_read →
// memcached_processing → socket_send, with per-connection batching in the
// first two stages and identical read/write paths (distinct so their
// processing-time distributions may differ).
func Memcached() *service.Blueprint {
	return &service.Blueprint{
		Name: "memcached",
		Stages: []service.StageSpec{
			{
				Name: "epoll", Queue: queueing.KindEpoll, PerConn: 4,
				Batching: true,
				Base:     dist.NewDeterministic(2 * us),
				PerJob:   dist.NewDeterministic(0.5 * us),
			},
			{
				Name: "socket_read", Queue: queueing.KindSocket, PerConn: 4,
				Batching: true,
				PerJob:   dist.NewDeterministic(1 * us),
				PerKB:    0.2 * us,
			},
			{
				Name: "memcached_processing", Queue: queueing.KindSingle,
				PerJob: dist.NewErlang(4, 2*us),
			},
			{
				Name: "socket_send", Queue: queueing.KindSingle,
				PerJob: dist.NewDeterministic(1 * us),
				PerKB:  0.1 * us,
			},
		},
		Paths: []service.PathSpec{
			{Name: "memcached_read", Stages: []int{0, 1, 2, 3}},
			{Name: "memcached_write", Stages: []int{0, 1, 2, 3}},
		},
	}
}

// Nginx models an NGINX worker: epoll → socket_read → nginx_proc →
// socket_send, with three execution paths:
//
//   - "rx": receive a client request, run request processing (the
//     expensive pass) — used when NGINX proxies to a downstream tier;
//   - "tx": receive the downstream response and send it to the client;
//   - "serve": full static-page service in one visit (webserver leaves of
//     the load-balancing and fanout experiments).
func Nginx() *service.Blueprint {
	return &service.Blueprint{
		Name: "nginx",
		Stages: []service.StageSpec{
			{
				Name: "epoll", Queue: queueing.KindEpoll, PerConn: 4,
				Batching: true,
				Base:     dist.NewDeterministic(5 * us),
				PerJob:   dist.NewDeterministic(1 * us),
			},
			{
				Name: "socket_read", Queue: queueing.KindSocket, PerConn: 4,
				Batching: true,
				PerJob:   dist.NewDeterministic(2 * us),
				PerKB:    0.3 * us,
			},
			{
				Name: "nginx_proc", Queue: queueing.KindSingle,
				PerJob: dist.NewErlang(4, 75*us),
			},
			{
				Name: "socket_send", Queue: queueing.KindSingle,
				PerJob: dist.NewDeterministic(25 * us),
				PerKB:  0.3 * us,
			},
			{
				Name: "serve_proc", Queue: queueing.KindSingle,
				PerJob: dist.NewErlang(4, 85*us),
			},
		},
		Paths: []service.PathSpec{
			{Name: "rx", Stages: []int{0, 1, 2}},
			{Name: "tx", Stages: []int{0, 1, 3}},
			{Name: "serve", Stages: []int{0, 1, 4, 3}},
		},
	}
}

// NginxProxy models the lightweight proxy configuration used in the
// load-balancing and fanout studies: forwarding is cheap (~8 µs), and the
// "join" path's cost grows with the number of fanout responses the proxy
// must read and merge.
func NginxProxy(fanout int) *service.Blueprint {
	if fanout < 1 {
		fanout = 1
	}
	return &service.Blueprint{
		Name: "nginx_proxy",
		Stages: []service.StageSpec{
			{
				Name: "epoll", Queue: queueing.KindEpoll, PerConn: 8,
				Batching: true,
				Base:     dist.NewDeterministic(3 * us),
				PerJob:   dist.NewDeterministic(0.5 * us),
			},
			{
				Name: "forward", Queue: queueing.KindSingle,
				PerJob: dist.NewErlang(2, 8*us),
			},
			{
				Name: "merge", Queue: queueing.KindSingle,
				PerJob: dist.NewErlang(2, float64(2+3*fanout)*us),
			},
		},
		Paths: []service.PathSpec{
			{Name: "rx", Stages: []int{0, 1}},
			{Name: "join", Stages: []int{0, 2}},
		},
	}
}

// MongoDB models the persistent back-end with the paper's multi-threaded
// execution model: a worker thread parses the query, blocks on disk I/O
// (releasing its core but holding the thread and one of the machine's disk
// spindles), then builds the reply. The "memory" path models a query whose
// working set is resident (no disk access); the probability split between
// paths is the paper's MongoDB example of a per-service execution-path
// state machine.
func MongoDB(memoryHitProb float64, threads int) *service.Blueprint {
	if threads < 1 {
		threads = 16
	}
	return &service.Blueprint{
		Name:      "mongodb",
		Model:     service.ModelThreaded,
		Threads:   threads,
		CtxSwitch: 3 * des.Microsecond,
		Stages: []service.StageSpec{
			{
				Name: "query_parse", Queue: queueing.KindSingle,
				PerJob: dist.NewErlang(3, 40*us),
			},
			{
				Name: "disk_read", Queue: queueing.KindSingle,
				PerJob:   dist.NewExponential(4000 * us),
				PoolName: DiskPool,
			},
			{
				Name: "reply", Queue: queueing.KindSingle,
				PerJob: dist.NewErlang(3, 40*us),
			},
		},
		Paths: []service.PathSpec{
			{Name: "memory", Stages: []int{0, 2}},
			{Name: "disk", Stages: []int{0, 1, 2}},
		},
		PathProbs: []float64{memoryHitProb, 1 - memoryHitProb},
	}
}

// DiskPool is the auxiliary machine pool name MongoDB's disk stage uses.
const DiskPool = "disk"

// ThriftServer models an Apache Thrift RPC server with the given name and
// mean application-processing cost. With procMeanUs ≈ 15 the server
// saturates just above 50 kQPS on one core, matching the paper's
// hello-world validation (Fig. 12a).
func ThriftServer(name string, procMeanUs float64) *service.Blueprint {
	return &service.Blueprint{
		Name: name,
		Stages: []service.StageSpec{
			{
				Name: "epoll", Queue: queueing.KindEpoll, PerConn: 4,
				Batching: true,
				Base:     dist.NewDeterministic(3 * us),
				PerJob:   dist.NewDeterministic(0.5 * us),
			},
			{
				Name: "thrift_proc", Queue: queueing.KindSingle,
				PerJob: dist.NewErlang(8, procMeanUs*us),
			},
			{
				Name: "socket_send", Queue: queueing.KindSingle,
				PerJob: dist.NewDeterministic(2 * us),
			},
		},
		Paths: []service.PathSpec{
			{Name: "call", Stages: []int{0, 1, 2}},
		},
	}
}

// SimpleServer is a one-stage exponential server, the paper's tail-at-scale
// leaf model ("a simple one-stage queueing system with exponentially
// distributed processing time, around a 1ms mean").
func SimpleServer(name string, meanUs float64) *service.Blueprint {
	return service.SingleStage(name, dist.NewExponential(meanUs*us))
}

// DefaultNetwork is the interrupt-processing model shared by experiments:
// four dedicated cores per machine (as in the paper's fanout experiment)
// with ~11 µs of soft_irq work per message plus a per-KB copy cost. The
// per-message constant is calibrated so the 16-way load-balancing scenario
// saturates its proxy machine's interrupt cores near 120 kQPS (Fig. 8).
func DefaultNetwork() sim.NetworkConfig {
	return sim.NetworkConfig{
		CoresPerMachine: 4,
		PerMsg:          dist.NewErlang(4, 11*us),
		PerKB:           0.2 * us,
		ClientTx:        true,
	}
}

// CollapsedSamplers extracts the stage cost samplers along one execution
// path of a blueprint — the BigHouse-style single-stage collapse, where
// every per-dispatch base cost (epoll) is charged in full to every request
// instead of being amortized across a batch. meanSizeKB folds the per-KB
// stage costs in as deterministic components.
func CollapsedSamplers(bp *service.Blueprint, pathIdx int, meanSizeKB float64) []dist.Sampler {
	var out []dist.Sampler
	for _, si := range bp.Paths[pathIdx].Stages {
		st := bp.Stages[si]
		if st.Base != nil {
			out = append(out, st.Base)
		}
		if st.PerJob != nil {
			out = append(out, st.PerJob)
		}
		if st.PerKB > 0 && meanSizeKB > 0 {
			out = append(out, dist.NewDeterministic(st.PerKB*meanSizeKB))
		}
	}
	return out
}
