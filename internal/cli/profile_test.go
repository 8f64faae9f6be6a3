package cli

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var profileSink [][]byte

// TestProfilesWriteFiles: the flags parse, the run is profiled, and stop
// leaves two non-empty pprof files behind.
func TestProfilesWriteFiles(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var p Profiles
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	p.Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem, "-memprofilerate", "1"}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		profileSink = append(profileSink, make([]byte, 64))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s: missing or empty (%v)", path, err)
		}
	}
}

// TestProfilesOffByDefault: with no flag set Start touches nothing and
// stop is a no-op.
func TestProfilesOffByDefault(t *testing.T) {
	var p Profiles
	p.Register(flag.NewFlagSet("x", flag.ContinueOnError))
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestProfilesUnwritablePath: a bad path is reported, not ignored.
func TestProfilesUnwritablePath(t *testing.T) {
	var p Profiles
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	p.Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu")}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start(); err == nil {
		t.Fatal("Start accepted an unwritable cpuprofile path")
	}
}
