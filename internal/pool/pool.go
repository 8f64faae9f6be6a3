// Package pool runs a campaign's independent cells side by side. Sweep
// points, experiment cells, chaos trials and farm jobs all go through Run,
// so every campaign uses every core the process may, and its output reads
// as if the cells had run one after another.
package pool

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run calls cell(ctx, i) for every i in [0, n) on min(width, n)
// goroutines, cells starting in index order. It passes each result to
// emit in index order as soon as every earlier one has been passed, on the
// calling goroutine, one call at a time, so what emit prints or writes
// does not depend on the width. Callers pass runtime.GOMAXPROCS(0) as the
// width; 1 runs the cells one after another.
//
// The first error in index order, from a cell or from emit, ends the run:
// nothing after it is emitted, no further cell starts, the context of the
// cells still running is cancelled, and Run returns the error once they
// have returned. A cell that fails after an earlier one has not yet
// finished waits its turn, so the error returned is the one a serial loop
// would meet first. Run does not watch ctx itself: a cell decides what a
// done ctx means for it.
func Run[R any](ctx context.Context, width, n int, cell func(context.Context, int) (R, error), emit func(int, R) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		r   R
		err error
	}
	// One buffered slot per cell: a cell never waits for emit.
	done := make([]chan outcome, n)
	for i := range done {
		done[i] = make(chan outcome, 1)
	}
	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for range max(1, min(width, n)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r, err := cell(ctx, i)
				done[i] <- outcome{r, err}
			}
		}()
	}
	var err error
	for i := 0; i < n && err == nil; i++ {
		o := <-done[i]
		if err = o.err; err == nil {
			err = emit(i, o.r)
		}
	}
	stopped.Store(true)
	cancel()
	wg.Wait()
	return err
}
