// Package cli holds shared plumbing for the command-line binaries: the
// context a command runs under, cancelled on SIGINT/SIGTERM or by a
// wall-clock limit, so every simulation bound to it stops and the caller
// can flush partial results and exit nonzero instead of dying mid-write.
package cli

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// StartWatchdog returns the context a command runs its simulations under
// (each binds its Sim to it, see sim.Sim.Bind). The first SIGINT or
// SIGTERM cancels it, and so does the wall-clock limit when maxWall > 0;
// context.Cause names which, for the exit diagnostic. A second signal
// exits at once, skipping the flush.
func StartWatchdog(maxWall time.Duration) context.Context {
	ctx, cancel := context.WithCancelCause(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		cancel(fmt.Errorf("received %v", <-sigc))
		<-sigc
		os.Exit(1)
	}()
	if maxWall > 0 {
		time.AfterFunc(maxWall, func() { cancel(fmt.Errorf("wall-clock limit %v exceeded", maxWall)) })
	}
	return ctx
}
