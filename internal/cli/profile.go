package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles is the host-profiling surface shared by the binaries: the
// -cpuprofile, -memprofile and -memprofilerate flags of `go test`, for a
// run that is not a test. Profiles describe the simulator, not the
// simulated system, and never change a run's results.
type Profiles struct {
	cpu, mem string
	memRate  int
}

// Register adds the profiling flags to fs.
func (p *Profiles) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile of the run to this file")
	fs.IntVar(&p.memRate, "memprofilerate", 0, "sample one allocation per this many bytes (1: every allocation; 0: the runtime's default)")
}

// Start begins the requested profiles. The returned stop function ends
// them and writes the files; call it once, after the run and before the
// process exits (os.Exit skips deferred calls).
func (p *Profiles) Start() (stop func() error, err error) {
	if p.memRate > 0 {
		runtime.MemProfileRate = p.memRate
	}
	var cpuFile *os.File
	if p.cpu != "" {
		if cpuFile, err = os.Create(p.cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close() // nothing was written; the start error is the one to report
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if p.mem == "" {
			return nil
		}
		f, err := os.Create(p.mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // flush the most recent allocations into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close() // the write error is the one to report
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}
