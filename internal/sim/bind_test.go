package sim

import (
	"context"
	"testing"

	"uqsim/internal/des"
	"uqsim/internal/dist"
	"uqsim/internal/job"
)

// TestBindCancelledContextRunsNothing: a Sim bound to a context that is
// already done stops before its first event.
func TestBindCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := buildSingle(t, dist.NewExponential(float64(50*des.Microsecond)), 1, 1000)
	defer s.Bind(ctx)()
	if _, err := s.Run(0, des.Second); err != nil {
		t.Fatal(err)
	}
	if n := s.Engine().Processed(); n != 0 {
		t.Fatalf("a Sim bound to a cancelled context processed %d events, want 0", n)
	}
}

// TestBindCancelMidRunStopsShort: cancelling the context mid-run stops the
// engine, and the report covers a window short of the horizon.
func TestBindCancelMidRunStopsShort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := buildSingle(t, dist.NewExponential(float64(50*des.Microsecond)), 1, 1000)
	done := 0
	s.OnRequestDone = func(des.Time, *job.Request) {
		if done++; done == 100 {
			cancel()
		}
	}
	release := s.Bind(ctx)
	const horizon = 3600 * des.Second
	rep, err := s.Run(0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if release() {
		t.Fatal("release reports the stop pending after the cancel should have run it")
	}
	if now := s.Engine().Now(); now >= horizon || rep.Completions < 100 {
		t.Fatalf("cancelled run stopped at %v with %d completions; want short of %v, past the cancel", now, rep.Completions, horizon)
	}
}

// TestBindReleaseDetaches: after release, a cancel no longer reaches the
// engine.
func TestBindReleaseDetaches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := buildSingle(t, dist.NewExponential(float64(50*des.Microsecond)), 1, 1000)
	if !s.Bind(ctx)() {
		t.Fatal("release of a live binding reports it already fired")
	}
	cancel()
	if _, err := s.Run(0, des.Second); err != nil {
		t.Fatal(err)
	}
	if now := s.Engine().Now(); now != des.Second {
		t.Fatalf("released run ended at %v, want the horizon %v", now, des.Second)
	}
}
