// Command bench is the repository's benchmark: four whole-run workloads of
// the simulator, measured end to end (host cost per simulated second and
// per simulated request) or, with -trace, layer by layer. BENCHMARK.json at
// the repository root describes it; README.md in this directory explains
// the metrics.
//
//	go run . -seed 1 -out results.json          # every workload, untraced
//	go run . -seed 1 -trace -out trace.json     # every workload, traced
//	go run . -workload twotier -seed 1          # one workload, in this process
//	go run . -compare a.json b.json             # two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Host      hostInfo          `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
}

type hostInfo struct {
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), Go: runtime.Version(), CPU: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// driverLine is the last line of a one-workload run's standard output,
// the form the benchmark driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// normalizeArgs lets -trace take the driver's separate 0/1 value while
// staying a plain switch for people: "-trace 1" becomes "-trace=1".
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "benchmark seed; every input is generated from it")
	name := fs.String("workload", "", "run one workload in this process (default: all four, one child process each)")
	seconds := fs.Float64("seconds", 30, "host seconds of timed reps per workload")
	traced := fs.Bool("trace", false, "traced run: per-layer metrics in place of end-to-end ones")
	outPath := fs.String("out", "", "write results (and, traced, spans) to this JSON file")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [-seed N] [-workload NAME] [-seconds S] [-trace] [-out FILE]")
		return 2
	}
	file := &resultFile{Seed: *seed, Traced: *traced, Host: host()}
	var err error
	if *name != "" {
		err = runOne(file, *name, *seed, *seconds, *traced)
	} else {
		err = runAll(file, *seed, *seconds, *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	for _, w := range file.Workloads {
		if w.RunsFailed > 0 {
			return 1
		}
	}
	return 0
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayerDefs
	}
	return append(append([]metricDef(nil), endToEndDefs...), accuracyDef)
}

// runOne runs one workload in this process and prints its metrics and the
// driver's result line. A run with failed reps prints its failures but no
// result line.
func runOne(file *resultFile, name string, seed uint64, seconds float64, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "uqsim-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	res, err := runWorkload(w, options{seed: seed, seconds: seconds, traced: traced, scale: 1, tmp: tmp})
	if err != nil {
		return err
	}
	file.Workloads = append(file.Workloads, res)
	if res.RunsFailed > 0 {
		fmt.Printf("%-10s runs_attempted %d runs_failed %d\n", res.Name, res.RunsAttempted, res.RunsFailed)
		return nil
	}
	defs := defsFor(traced)
	if err := finish(res.Metrics, defs); err != nil {
		return err
	}
	printMetrics(os.Stdout, res, defs)
	line := driverLine{Correct: true, Attempted: res.RunsAttempted, Failed: res.RunsFailed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		if !traced && d.Name == accuracyDef.Name {
			continue // the driver reads it from the traced run
		}
		line.Metrics[d.Name] = driverValue{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// runAll runs every workload, each in a child process of this binary so
// one workload's heap and peak RSS cannot leak into the next.
func runAll(file *resultFile, seed uint64, seconds float64, traced bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "uqsim-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, w := range workloads {
		out := filepath.Join(tmp, w.name+".json")
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", out}
		if traced {
			args = append(args, "-trace")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		var child resultFile
		if err := readJSON(out, &child); err != nil {
			if runErr != nil {
				return fmt.Errorf("workload %s: %w", w.name, runErr)
			}
			return err
		}
		file.Workloads = append(file.Workloads, child.Workloads...)
	}
	attempted, failed := 0, 0
	for _, w := range file.Workloads {
		attempted += w.RunsAttempted
		failed += w.RunsFailed
	}
	fmt.Printf("total      runs_attempted %d runs_failed %d\n", attempted, failed)
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
