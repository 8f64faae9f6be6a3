// Command uqsim is µqSim's command-line front end. One simulator, driven
// by one directory of JSON configuration files (the paper's Table I
// inputs: machines.json, service.json, graph.json, path.json,
// client.json), behind six subcommands:
//
//	uqsim run -config configs/twotier [-qps 30000] [-duration 2s] [-csv]
//	uqsim sweep -config configs/twotier -from 5000 -to 80000 -step 5000
//	uqsim trace -config configs/threetier -slowest 5 -sample 4
//	uqsim chaos -config configs/metastable -trials 50
//	uqsim experiments -csv -out results/ all
//	uqsim farm -config configs/twotier -from 5000 -to 80000 -step 5000 -spool spool/
//
// `uqsim <subcommand> -h` lists a subcommand's flags.
//
// SIGINT/SIGTERM and the -max-wall watchdog stop the running simulation
// cleanly: whatever was produced so far is still printed or written,
// marked partial, and the process exits nonzero. A second signal kills
// immediately.
//
// Exit codes, uniform across subcommands (internal/cli): 0 completed,
// 1 interrupted or failed (artifacts already written are complete
// files), 2 usage, 3 completed with findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"uqsim/internal/cli"
	"uqsim/internal/config"
)

const usage = `usage: uqsim <subcommand> [flags]

  run          run one simulation of a config directory and print its report
  sweep        measure the load-latency curve over a grid of offered loads
  trace        print waterfalls of the slowest traced requests
  chaos        search random fault schedules for invariant violations
  experiments  regenerate the paper's figures and tables
  farm         run a sweep or chaos campaign with a journal that resumes

Run 'uqsim <subcommand> -h' for its flags.
`

var subcommands = map[string]func(args []string) int{
	"run":         runCmd,
	"sweep":       sweepCmd,
	"trace":       traceCmd,
	"chaos":       chaosCmd,
	"experiments": experimentsCmd,
	"farm":        farmCmd,
}

func main() {
	os.Exit(dispatch(os.Args[1:]))
}

func dispatch(args []string) int {
	if len(args) > 0 {
		if cmd, ok := subcommands[args[0]]; ok {
			return cmd(args[1:])
		}
		switch arg := args[0]; {
		case arg == "-h" || arg == "-help" || arg == "--help" || arg == "help":
			fmt.Print(usage)
			return cli.ExitOK
		case strings.HasPrefix(arg, "-"):
			// A flag first is the old single-run invocation.
			fmt.Fprintf(os.Stderr, "uqsim: the subcommand comes first; for one run: uqsim run %s\n\n", strings.Join(args, " "))
		default:
			fmt.Fprintf(os.Stderr, "uqsim: unknown subcommand %q\n\n", arg)
		}
	}
	fmt.Fprint(os.Stderr, usage)
	return cli.ExitUsage
}

// flags is one subcommand's flag set plus the values of every flag that
// more than one subcommand takes. Each shared flag is defined exactly
// once, in the with* method that adds it; a subcommand calls the methods
// for the flags it takes.
type flags struct {
	*flag.FlagSet
	config         string
	maxWall        time.Duration
	csv, quiet     bool
	seed           uint64
	from, to, step float64
	trials         int
	maxActions     int
	// over collects -qps, -warmup, -duration, -faults, -fidelity and
	// -sample-rate; a flag a subcommand does not take stays zero, which
	// config.Load treats as "no override".
	over config.Overrides
	prof cli.Profiles
}

func newFlags(name string) *flags {
	return &flags{FlagSet: flag.NewFlagSet("uqsim "+name, flag.ContinueOnError)}
}

func (f *flags) withConfig() {
	f.StringVar(&f.config, "config", "", "directory with machines/service/graph/path/client.json")
}
func (f *flags) withMaxWall() {
	f.DurationVar(&f.maxWall, "max-wall", 0, "stop after this much wall-clock time, flush partial results, exit nonzero")
}
func (f *flags) withCSV()            { f.BoolVar(&f.csv, "csv", false, "emit CSV instead of aligned tables") }
func (f *flags) withQuiet()          { f.BoolVar(&f.quiet, "q", false, "suppress per-trial/per-job progress") }
func (f *flags) withSeed(def uint64) { f.Uint64Var(&f.seed, "seed", def, "master random seed") }
func (f *flags) withQPS() {
	f.Float64Var(&f.over.QPS, "qps", 0, "override the client's load with a constant open-loop rate (QPS)")
}
func (f *flags) withWarmup() {
	f.DurationVar(&f.over.Warmup, "warmup", 0, "override the warmup window (virtual time)")
}
func (f *flags) withDuration() {
	f.DurationVar(&f.over.Duration, "duration", 0, "override the measured window (virtual time)")
}
func (f *flags) withFaults() {
	f.StringVar(&f.over.Faults, "faults", "", "faults.json with resilience policies and a fault plan (overrides <config>/faults.json)")
}
func (f *flags) withProfiles() { f.prof.Register(f.FlagSet) }

func (f *flags) withGrid() {
	f.Float64Var(&f.from, "from", 5000, "first offered load (QPS)")
	f.Float64Var(&f.to, "to", 50000, "last offered load (QPS)")
	f.Float64Var(&f.step, "step", 5000, "load increment (QPS)")
}

func (f *flags) withChaosSearch() {
	f.IntVar(&f.trials, "trials", 50, "chaos: number of random fault scenarios to try")
	f.IntVar(&f.maxActions, "max-actions", 0, "chaos: max fault actions per scenario (0 = the default, 6)")
}

func (f *flags) withFidelity() {
	f.StringVar(&f.over.Fidelity, "fidelity", "", `override the engine fidelity: "full" or "hybrid"`)
	f.Float64Var(&f.over.SampleRate, "sample-rate", 0, "hybrid foreground sample fraction in (0,1] (requires -fidelity hybrid or a hybrid config)")
}

// parse parses args; ok is false when the subcommand must exit at once
// with code: 0 after -h, 2 on a bad flag or, with needConfig, a missing
// -config.
func (f *flags) parse(args []string, needConfig bool) (code int, ok bool) {
	switch err := f.Parse(args); {
	case err == flag.ErrHelp:
		return cli.ExitOK, false
	case err != nil:
		return cli.ExitUsage, false
	case needConfig && f.config == "":
		f.Usage()
		return f.fail(cli.ExitUsage, "-config is required"), false
	}
	return 0, true
}

// fail prints one diagnostic on stderr, prefixed with the subcommand, and
// returns code for the caller to exit with.
func (f *flags) fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "%s: %s\n", f.Name(), fmt.Sprintf(format, args...))
	return code
}
