// Package cli holds shared plumbing for the command-line binaries:
// graceful shutdown on SIGINT/SIGTERM and a wall-clock watchdog, both of
// which stop the currently running simulation engine so the caller can
// flush partial results and exit nonzero instead of dying mid-write.
package cli

import (
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"uqsim/internal/des"
	"uqsim/internal/sim"
)

// Watchdog tracks the engine of whichever simulation is currently running
// and stops it when a termination signal arrives or the wall-clock budget
// runs out. A simulation stopped mid-run returns a partial report (see
// sim.Run); simulations created after the trigger are stopped immediately
// so a multi-run experiment sweeps through its remaining cells without
// doing work.
type Watchdog struct {
	mu          sync.Mutex
	current     *des.Engine
	interrupted atomic.Bool
	reason      atomic.Value // string
}

// StartWatchdog installs the signal handler and, when maxWall > 0, arms
// the wall-clock limit. It registers itself as the sim.OnNew observer, so
// it must be started before any simulation is built.
func StartWatchdog(maxWall time.Duration) *Watchdog {
	w := &Watchdog{}
	sim.OnNew = w.observe

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		w.trigger(fmt.Sprintf("received %v", s))
		// A second signal means "now": skip the flush and die.
		<-sigc
		os.Exit(1)
	}()
	if maxWall > 0 {
		time.AfterFunc(maxWall, func() {
			w.trigger(fmt.Sprintf("wall-clock limit %v exceeded", maxWall))
		})
	}
	return w
}

// observe tracks s as the current simulation. When the watchdog already
// fired, the new engine is stopped before it runs a single event.
func (w *Watchdog) observe(s *sim.Sim) {
	w.mu.Lock()
	w.current = s.Engine()
	stopNow := w.interrupted.Load()
	w.mu.Unlock()
	if stopNow {
		s.Engine().Stop()
	}
}

// trigger marks the watchdog fired and stops the engine that is (or was
// last) running. Engine.Stop is atomic, so calling it from this goroutine
// while the run loop spins on another is safe.
func (w *Watchdog) trigger(reason string) {
	w.reason.Store(reason)
	w.mu.Lock()
	eng := w.current
	w.interrupted.Store(true)
	w.mu.Unlock()
	if eng != nil {
		eng.Stop()
	}
}

// Interrupted reports whether a signal or the wall-clock limit fired.
func (w *Watchdog) Interrupted() bool { return w.interrupted.Load() }

// Reason describes what fired, for the exit diagnostic.
func (w *Watchdog) Reason() string {
	if r, ok := w.reason.Load().(string); ok {
		return r
	}
	return ""
}
