package pool

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestEmitsInCellOrder: whatever order cells finish in, emit sees them in
// index order, and at no width do more than width cells run at once.
func TestEmitsInCellOrder(t *testing.T) {
	for _, width := range []int{1, 2, 4, 16} {
		var running, peak atomic.Int64
		var got []int
		err := Run(context.Background(), width, 10, func(_ context.Context, i int) (int, error) {
			now := running.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			// Later cells finish first.
			time.Sleep(time.Duration(10-i) * time.Millisecond)
			running.Add(-1)
			return i * i, nil
		}, func(i, r int) error {
			if r != i*i {
				return fmt.Errorf("cell %d emitted %d", i, r)
			}
			got = append(got, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(got, want) {
			t.Fatalf("width %d: emitted %v, want %v", width, got, want)
		}
		if p := peak.Load(); p > int64(width) {
			t.Fatalf("width %d: %d cells ran at once", width, p)
		}
	}
}

// TestFirstErrorInCellOrderWins: a later cell failing first does not
// hide an earlier cell's error, nothing after the failed cell is emitted,
// and the cells still running see their context cancelled.
func TestFirstErrorInCellOrderWins(t *testing.T) {
	errEarly, errLate := errors.New("early"), errors.New("late")
	var emitted []int
	var cancelled atomic.Bool
	err := Run(context.Background(), 3, 6, func(ctx context.Context, i int) (int, error) {
		switch i {
		case 1:
			time.Sleep(30 * time.Millisecond)
			return 0, errEarly
		case 2:
			return 0, errLate
		case 3:
			select {
			case <-ctx.Done():
				cancelled.Store(true)
			case <-time.After(10 * time.Second):
			}
		}
		return i, nil
	}, func(i, _ int) error {
		emitted = append(emitted, i)
		return nil
	})
	if !errors.Is(err, errEarly) {
		t.Fatalf("got %v, want the error of cell 1", err)
	}
	if !slices.Equal(emitted, []int{0}) {
		t.Fatalf("emitted %v, want [0]", emitted)
	}
	if !cancelled.Load() {
		t.Fatal("the cell still running was not cancelled")
	}
}

// TestEmitErrorStops: an error from emit ends the run like a cell error.
func TestEmitErrorStops(t *testing.T) {
	stop := errors.New("stop")
	var emitted []int
	err := Run(context.Background(), 2, 100, func(context.Context, int) (int, error) {
		return 0, nil
	}, func(i, _ int) error {
		emitted = append(emitted, i)
		if i == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("got %v", err)
	}
	if !slices.Equal(emitted, []int{0, 1, 2}) {
		t.Fatalf("emitted %v, want [0 1 2]", emitted)
	}
}

func TestNoCells(t *testing.T) {
	err := Run(context.Background(), 4, 0, func(context.Context, int) (int, error) {
		t.Fatal("cell called")
		return 0, nil
	}, func(int, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
}
