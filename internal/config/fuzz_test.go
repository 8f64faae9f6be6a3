package config

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzBaseDir reads the shipped two-tier directory once; fuzz targets
// replace one document at a time in this known-good base and load it.
func fuzzBaseDir(f *testing.F) *Dir {
	f.Helper()
	d, err := ReadDir(filepath.Join("..", "..", "configs", "twotier"))
	if err != nil {
		f.Fatal(err)
	}
	return d
}

// fuzzLoad loads base with one document replaced by set.
func fuzzLoad(base *Dir, set func(*Dir)) (*Setup, error) {
	d := *base
	set(&d)
	return d.Load(Overrides{})
}

// FuzzMachines feeds arbitrary bytes through the machines.json decoder and
// the full load path. Assembly may reject the document, but it must
// never panic.
func FuzzMachines(f *testing.F) {
	base := fuzzBaseDir(f)
	f.Add(base.Machines)
	for _, name := range []string{"machines.json"} {
		if b, err := os.ReadFile(filepath.Join("..", "..", "configs", "threetier", name)); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{"machines":[{"name":"a","cores":2},{"name":"b","cores":2}],
		"topology":{"domains":[{"name":"rack0","machines":["a","b"]}]}}`))
	f.Add([]byte(`{"machines":[{"name":"a","cores":2,"pools":[{"name":"p","capacity":4}]}]}`))
	// Region-bearing seeds: a valid rack→region hierarchy with WAN
	// overrides, plus pinned invalid inputs (duplicate membership, a
	// machine in two regions, negative WAN latency, a self-link) that
	// must be rejected without panicking.
	f.Add([]byte(`{"machines":[{"name":"a","cores":2},{"name":"b","cores":2}],
		"topology":{"domains":[{"name":"rack0","machines":["a"]}],
		"regions":[{"name":"east","racks":["rack0"]},{"name":"west","machines":["b"]}],
		"wan":{"latency_ms":5,"per_kb_us":1,"links":[{"a":"east","b":"west","latency_ms":2}]}}}`))
	f.Add([]byte(`{"machines":[{"name":"a","cores":2}],
		"topology":{"regions":[{"name":"r","machines":["a","a"]}]}}`))
	f.Add([]byte(`{"machines":[{"name":"a","cores":2},{"name":"b","cores":2}],
		"topology":{"regions":[{"name":"east","machines":["a","b"]},{"name":"west","machines":["b"]}]}}`))
	f.Add([]byte(`{"machines":[{"name":"a","cores":2},{"name":"b","cores":2}],
		"topology":{"regions":[{"name":"east","machines":["a"]},{"name":"west","machines":["b"]}],
		"wan":{"latency_ms":-1}}}`))
	f.Add([]byte(`{"machines":[{"name":"a","cores":2},{"name":"b","cores":2}],
		"topology":{"regions":[{"name":"east","machines":["a"]},{"name":"west","machines":["b"]}],
		"wan":{"links":[{"a":"east","b":"east","latency_ms":1}]}}}`))
	// A pinned invalid input: the removed parallel-engine section.
	f.Add([]byte(`{"machines":[{"name":"a","cores":2}],"engine":{"workers":4}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = fuzzLoad(base, func(d *Dir) { d.Machines = data })
	})
}

// FuzzFaults feeds arbitrary bytes through the faults.json decoder,
// including the network partition/link sections, against the shipped base
// documents. Installation may reject the plan, but it must never panic.
func FuzzFaults(f *testing.F) {
	base := fuzzBaseDir(f)
	f.Add([]byte(`{"events":[{"at_s":0.1,"kind":"crash_machine","machine":"frontend"},
		{"at_s":0.2,"kind":"recover_machine","machine":"frontend"}]}`))
	f.Add([]byte(`{"events":[{"at_s":0.1,"kind":"crash_domain","domain":"rack0","stagger_ms":5}]}`))
	f.Add([]byte(`{"network":{
		"partitions":[{"at_s":0.1,"until_s":0.3,"group_a":["frontend"],"group_b":["cache"],"one_way":true}],
		"links":[{"at_s":0,"until_s":0.5,"src":"frontend","dst":"cache","drop":0.1,"dup":0.05}]}}`))
	f.Add([]byte(`{"policies":[{"service":"nginx","timeout_ms":10,"max_retries":2,
		"breaker":{"error_threshold":0.5,"window":16,"cooldown_ms":50}}]}`))
	// Pinned invalid inputs: an until_s that never opens a window, an
	// until_s on kinds that heal by recovery or are recoveries, and a
	// network kind under events.
	f.Add([]byte(`{"events":[{"at_s":0.2,"until_s":0.2,"kind":"degrade_freq","machine":"cache","freq_mhz":1300}]}`))
	f.Add([]byte(`{"events":[{"at_s":0.1,"until_s":0.3,"kind":"crash_machine","machine":"cache"}]}`))
	f.Add([]byte(`{"events":[{"at_s":0.1,"until_s":0.3,"kind":"kill_instance","service":"memcached"},
		{"at_s":0.2,"until_s":0.3,"kind":"restart_instance","service":"memcached"}]}`))
	f.Add([]byte(`{"events":[{"at_s":0.1,"kind":"partition"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = fuzzLoad(base, func(d *Dir) { d.Faults = data })
	})
}

// FuzzControl feeds arbitrary bytes through the control.json decoder and
// plane attachment on the assembled base. Attachment may reject the
// document, but it must never panic.
func FuzzControl(f *testing.F) {
	base := fuzzBaseDir(f)
	f.Add([]byte(`{"services":["nginx"],"detector":{"period_ms":10},"failover":{"restart_delay_ms":50}}`))
	f.Add([]byte(`{"vantage":"frontend","detector":{"period_ms":5,"phi_threshold":8}}`))
	f.Add([]byte(`{"autoscale":[{"service":"nginx","min":1,"max":3,"target_utilization":0.6,"interval_ms":50}]}`))
	// Region failover against a geography-less base must be rejected
	// cleanly, never panic.
	f.Add([]byte(`{"heartbeat":{"period_ms":10},"region_failover":{"check_interval_ms":10,"drain_delay_ms":20}}`))
	if _, err := base.Load(Overrides{}); err != nil {
		f.Fatalf("base documents stopped assembling: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		setup, err := fuzzLoad(base, func(d *Dir) { d.Control = data })
		if err == nil && setup.Plane != nil {
			setup.Plane.Stop()
		}
	})
}

// FuzzGraph feeds arbitrary bytes through the graph.json decoder and the
// full assembly path — deployments, placements, load-balancer selection,
// and geo-replication declarations. Assembly may reject the document, but
// it must never panic.
func FuzzGraph(f *testing.F) {
	base := fuzzBaseDir(f)
	f.Add(base.Graph)
	for _, dir := range []string{"threetier", "threeregion", "metastable"} {
		if b, err := os.ReadFile(filepath.Join("..", "..", "configs", dir, "graph.json")); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{"deployments":[{"service":"nginx","lb":"least_loaded",
		"instances":[{"machine":"frontend","cores":1},{"machine":"cache","cores":1}]}]}`))
	// Pinned invalid inputs: unknown machine, zero cores, unknown LB,
	// replication without regions.
	f.Add([]byte(`{"deployments":[{"service":"nginx","instances":[{"machine":"nope","cores":1}]}]}`))
	f.Add([]byte(`{"deployments":[{"service":"nginx","instances":[{"machine":"frontend","cores":0}]}]}`))
	f.Add([]byte(`{"deployments":[{"service":"nginx","lb":"bogus","instances":[{"machine":"frontend","cores":1}]}]}`))
	f.Add([]byte(`{"deployments":[{"service":"nginx","replication":{"lag_ms":30},
		"instances":[{"machine":"frontend","cores":1}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = fuzzLoad(base, func(d *Dir) { d.Graph = data })
	})
}

// FuzzClient feeds arbitrary bytes through the client.json decoder —
// open/closed loop selection, arrival processes, diurnal patterns, retry
// and deadline-budget settings. Assembly may reject the document, but it
// must never panic.
func FuzzClient(f *testing.F) {
	base := fuzzBaseDir(f)
	f.Add(base.Client)
	for _, dir := range []string{"threetier", "threeregion", "metastable"} {
		if b, err := os.ReadFile(filepath.Join("..", "..", "configs", dir, "client.json")); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{"seed":1,"closed_users":8,"think":{"type":"exponential","mean_us":500},"duration_s":1}`))
	f.Add([]byte(`{"seed":1,"diurnal":{"base":100,"amplitude":50,"period_s":1},"duration_s":1}`))
	f.Add([]byte(`{"seed":1,"qps":100,"budget_ms":50,"timeout_ms":20,"max_retries":3,"duration_s":1}`))
	// Pinned invalid inputs: both loops at once, negative rate, budget
	// spec and shorthand together, unknown process.
	f.Add([]byte(`{"qps":100,"closed_users":5,"duration_s":1}`))
	f.Add([]byte(`{"qps":-5,"duration_s":1}`))
	f.Add([]byte(`{"qps":10,"budget_ms":50,"budget":{"type":"deterministic","value_us":1},"duration_s":1}`))
	f.Add([]byte(`{"qps":10,"process":"bogus","duration_s":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = fuzzLoad(base, func(d *Dir) { d.Client = data })
	})
}

// FuzzPath feeds arbitrary bytes through the path.json decoder — trees,
// node wiring, pool acquire/release sequences. Assembly may reject the
// document, but it must never panic.
func FuzzPath(f *testing.F) {
	base := fuzzBaseDir(f)
	f.Add(base.Paths)
	for _, dir := range []string{"threetier", "threeregion", "metastable"} {
		if b, err := os.ReadFile(filepath.Join("..", "..", "configs", dir, "path.json")); err == nil {
			f.Add(b)
		}
	}
	// Pinned invalid inputs: a node cycle, an unknown service, a child
	// index out of range, releasing a pool never acquired.
	f.Add([]byte(`{"trees":[{"name":"loop","weight":1,"root":0,
		"nodes":[{"id":0,"service":"nginx","path":"rx","children":[0]}]}]}`))
	f.Add([]byte(`{"trees":[{"name":"t","weight":1,"root":0,
		"nodes":[{"id":0,"service":"ghost","children":[]}]}]}`))
	f.Add([]byte(`{"trees":[{"name":"t","weight":1,"root":0,
		"nodes":[{"id":0,"service":"nginx","path":"rx","children":[9]}]}]}`))
	f.Add([]byte(`{"pools":[{"name":"p","capacity":1}],"trees":[{"name":"t","weight":1,"root":0,
		"nodes":[{"id":0,"service":"nginx","path":"rx","release":["p"]}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = fuzzLoad(base, func(d *Dir) { d.Paths = data })
	})
}

// FuzzService feeds arbitrary bytes through the service.json decoder —
// stage lists, queue disciplines, path stage indices, threading models.
// Assembly may reject the document, but it must never panic.
func FuzzService(f *testing.F) {
	base := fuzzBaseDir(f)
	f.Add(base.Services)
	for _, dir := range []string{"threetier", "threeregion", "metastable"} {
		if b, err := os.ReadFile(filepath.Join("..", "..", "configs", dir, "service.json")); err == nil {
			f.Add(b)
		}
	}
	// Pinned invalid inputs: a path referencing a missing stage, an
	// unknown distribution type, a negative thread count, path_probs
	// that don't sum to 1.
	f.Add([]byte(`{"services":[{"service_name":"nginx","stages":[
		{"stage_name":"s","per_job":{"type":"deterministic","value_us":1}}],
		"paths":[{"path_name":"rx","stages":[5]}]}]}`))
	f.Add([]byte(`{"services":[{"service_name":"nginx","stages":[
		{"stage_name":"s","per_job":{"type":"bogus","value_us":1}}],
		"paths":[{"path_name":"rx","stages":[0]}]}]}`))
	f.Add([]byte(`{"services":[{"service_name":"nginx","model":"multi-threaded","threads":-1,
		"stages":[{"stage_name":"s","per_job":{"type":"deterministic","value_us":1}}],
		"paths":[{"path_name":"rx","stages":[0]}]}]}`))
	f.Add([]byte(`{"services":[{"service_name":"nginx","stages":[
		{"stage_name":"s","per_job":{"type":"deterministic","value_us":1}}],
		"paths":[{"path_name":"a","stages":[0]},{"path_name":"b","stages":[0]}],
		"path_probs":[0.9,0.9]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = fuzzLoad(base, func(d *Dir) { d.Services = data })
	})
}

// FuzzSessions feeds arbitrary bytes through the client.json decoder with
// the sessions and fidelity blocks in play. Assembly may reject the
// document, but it must never panic.
func FuzzSessions(f *testing.F) {
	base := fuzzBaseDir(f)
	f.Add(base.Client)
	// Valid session populations: weighted journeys, phased ramps, flash
	// crowds, on/off users, and a hybrid-fidelity split.
	f.Add([]byte(`{"seed":1,"duration_s":0.5,"sessions":{"users":50,"journeys":[
		{"name":"browse","weight":3,"steps":[
			{"tree":"get","think":{"type":"exponential","mean_us":500}},{"tree":"get"}]},
		{"name":"buy","steps":[{"tree":"get"}]}]}}`))
	f.Add([]byte(`{"seed":1,"duration_s":0.5,"fidelity":"hybrid","sample_rate":0.05,
		"sessions":{"users":100,
		"journeys":[{"name":"j","steps":[{"tree":"get","think":{"type":"exponential","mean_us":1000}}]}],
		"phases":[{"at_s":0.2,"users":400,"ramp_s":0.1}],
		"flash_crowds":[{"at_s":0.3,"extra":200,"ramp_up_s":0.05,"hold_s":0.1,"ramp_down_s":0.05}],
		"on_off":{"mean_on_s":0.2,"mean_off_s":0.1}}}`))
	f.Add([]byte(`{"seed":1,"duration_s":0.5,"qps":500,"fidelity":"hybrid"}`))
	// Pinned invalid inputs: unknown tree name, no journeys, sessions
	// alongside closed_users, a misspelled fidelity mode, sample_rate
	// without hybrid, and an out-of-range sample rate.
	f.Add([]byte(`{"duration_s":1,"sessions":{"users":10,"journeys":[{"name":"j","steps":[{"tree":"got"}]}]}}`))
	f.Add([]byte(`{"duration_s":1,"sessions":{"users":10,"journeys":[]}}`))
	f.Add([]byte(`{"duration_s":1,"closed_users":5,"sessions":{"users":10,"journeys":[{"name":"j","steps":[{"tree":"get"}]}]}}`))
	f.Add([]byte(`{"duration_s":1,"qps":100,"fidelity":"hybird"}`))
	f.Add([]byte(`{"duration_s":1,"qps":100,"sample_rate":0.5}`))
	f.Add([]byte(`{"duration_s":1,"qps":100,"fidelity":"hybrid","sample_rate":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = fuzzLoad(base, func(d *Dir) { d.Client = data })
	})
}
