// Package trace reconstructs per-request execution waterfalls from the
// simulator's job-completion stream — the microservices-debugging use case
// the paper motivates (finding which tier on the critical path caused an
// end-to-end QoS violation).
//
// Wire a Tracer to sim.Sim via its OnJobDone and OnRequestDone hooks; it
// samples one out of every SampleEvery requests and records a span per
// path-node visit (service, instance, queueing vs processing split).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"uqsim/internal/des"
	"uqsim/internal/job"
	"uqsim/internal/service"
)

// Span is one path-node execution within a request.
type Span struct {
	Service  string
	Instance string
	Node     int
	// Outcome classifies the span: OK for a normal completion, Timeout
	// for an attempt whose caller gave up before the service finished.
	Outcome job.Outcome
	// Enqueued/Started/Finished are the service-local timestamps:
	// Enqueued→Started is the final stage's queueing delay,
	// Arrived→Finished the full residence.
	Arrived  des.Time
	Started  des.Time
	Finished des.Time
}

// Residence is the span's total time inside the instance.
func (s Span) Residence() des.Time { return s.Finished - s.Arrived }

// Request is one traced request.
type Request struct {
	ID      job.ID
	Class   int
	Arrival des.Time
	Finish  des.Time
	Spans   []Span
}

// Latency is the request's end-to-end latency.
func (r *Request) Latency() des.Time { return r.Finish - r.Arrival }

// CriticalSpan returns the span with the largest residence — the first
// tier to inspect when the request violated its QoS.
func (r *Request) CriticalSpan() (Span, bool) {
	if len(r.Spans) == 0 {
		return Span{}, false
	}
	best := r.Spans[0]
	for _, s := range r.Spans[1:] {
		if s.Residence() > best.Residence() {
			best = s
		}
	}
	return best, true
}

// Waterfall renders the request as an indented text timeline.
func (r *Request) Waterfall() string {
	var b strings.Builder
	fmt.Fprintf(&b, "request %d (class %d): %v → %v  latency %v\n",
		r.ID, r.Class, r.Arrival, r.Finish, r.Latency())
	spans := append([]Span(nil), r.Spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Arrived < spans[j].Arrived })
	for _, s := range spans {
		fmt.Fprintf(&b, "  %8s..%-8s  %-14s @%-14s node=%d residence=%v",
			(s.Arrived - r.Arrival).String(), (s.Finished - r.Arrival).String(),
			s.Service, s.Instance, s.Node, s.Residence())
		if s.Outcome != job.OutcomeOK {
			fmt.Fprintf(&b, " [%s]", s.Outcome)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Tracer samples and assembles request traces.
type Tracer struct {
	// SampleEvery records one of every N requests (default 1: all).
	SampleEvery int
	// MaxTraces bounds retained traces (default 4096, oldest dropped).
	MaxTraces int

	open    map[job.ID]*Request
	skipped map[job.ID]bool
	done    []*Request
	seen    uint64
	missed  uint64
}

// New creates a tracer sampling one of every sampleEvery requests.
func New(sampleEvery int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{
		SampleEvery: sampleEvery,
		MaxTraces:   4096,
		open:        make(map[job.ID]*Request),
		skipped:     make(map[job.ID]bool),
	}
}

// OnJobDone records one service-local job completion. Wire to
// sim.Sim.OnJobDone.
func (t *Tracer) OnJobDone(now des.Time, j *job.Job, svc string) {
	if j.Req == nil {
		return
	}
	t.noteRequest(j.Req)
	r, ok := t.open[j.Req.ID]
	if !ok {
		return // unsampled
	}
	var instance string
	if in, ok := j.Server.(*service.Instance); ok {
		instance = in.Name
	}
	r.Spans = append(r.Spans, Span{
		Service:  svc,
		Instance: instance,
		Node:     j.NodeID,
		Outcome:  j.Outcome,
		Arrived:  j.Arrived,
		Started:  j.Started,
		Finished: j.Finished,
	})
}

// noteRequest decides (once) whether a request is sampled.
func (t *Tracer) noteRequest(req *job.Request) {
	if _, ok := t.open[req.ID]; ok {
		return
	}
	if t.skipped[req.ID] {
		return
	}
	t.seen++
	if t.SampleEvery > 1 && t.seen%uint64(t.SampleEvery) != 0 {
		t.missed++
		t.skipped[req.ID] = true
		return
	}
	t.open[req.ID] = &Request{
		ID:      req.ID,
		Class:   req.Class,
		Arrival: req.Arrival,
	}
}

// OnRequestDone finalizes a traced request. Wire to sim.Sim.OnRequestDone.
func (t *Tracer) OnRequestDone(now des.Time, req *job.Request) {
	delete(t.skipped, req.ID)
	r, ok := t.open[req.ID]
	if !ok {
		return
	}
	delete(t.open, req.ID)
	r.Finish = now
	t.done = append(t.done, r)
	if t.MaxTraces > 0 && len(t.done) > t.MaxTraces {
		t.done = t.done[len(t.done)-t.MaxTraces:]
	}
}

// Traces returns the completed traces, oldest first.
func (t *Tracer) Traces() []*Request { return t.done }

// Slowest returns the n completed traces with the highest latency,
// slowest first.
func (t *Tracer) Slowest(n int) []*Request {
	out := append([]*Request(nil), t.done...)
	sort.Slice(out, func(i, j int) bool { return out[i].Latency() > out[j].Latency() })
	if n < len(out) {
		out = out[:n]
	}
	return out
}
