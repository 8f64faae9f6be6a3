// Package job defines the units of work flowing through the simulator.
//
// A Request is one end-to-end user request (what the client measures); a Job
// is the request's visit to one inter-microservice path node, i.e. the unit
// a single microservice instance queues and processes. Fan-out clones a
// job per child node; fan-in joins them back (tracked by the sim package).
package job

import (
	"uqsim/internal/des"
	"uqsim/internal/slab"
)

// ID identifies requests and jobs uniquely within a run.
type ID uint64

// Outcome classifies how a request or job attempt ended. Beyond OK, the
// taxonomy follows the failure modes a resilience policy can produce:
// client/edge timeouts, load shedding, crash-induced drops, and circuit
// breakers failing fast. Each outcome is one row of outcomeRows.
type Outcome uint8

// Outcomes, in outcomeRows' order.
const (
	// OutcomeOK is a normal completion.
	OutcomeOK Outcome = iota
	// OutcomeTimeout marks a request the client gave up on, or a job
	// attempt abandoned by an edge timeout (the server-side work keeps
	// running either way).
	OutcomeTimeout
	// OutcomeShed marks admission rejected by queue-length load
	// shedding.
	OutcomeShed
	// OutcomeDropped marks work lost to a crashed machine or killed
	// instance.
	OutcomeDropped
	// OutcomeBreakerOpen marks a call failed fast by an open circuit
	// breaker.
	OutcomeBreakerOpen
	// OutcomeDeadline marks a request whose end-to-end deadline budget
	// expired: the subtree is short-circuited and queued work cancelled.
	OutcomeDeadline
	// OutcomeCanceled marks a job attempt abandoned before (or while)
	// serving because its request already terminated or a racing hedge
	// attempt won; queued canceled work is discarded at dequeue without
	// consuming server time. Job-level only — requests never end Canceled.
	OutcomeCanceled
	// OutcomeUnreachable marks an attempt failed fast because the
	// network fault model severed the machine pair (a partition) or a
	// gray link dropped the message before delivery.
	OutcomeUnreachable
	// NumOutcomes counts the outcomes: arrays indexed by Outcome have
	// this length.
	NumOutcomes
)

// outcomeRows is the outcome table: each outcome's name, and the request
// counter a request ended with that outcome is counted in. A request that
// completes counts as OK and one the client gives up on as Timeout (the
// client's own patience); every other end is a failure, counted in the
// row's slot. An edge timeout whose retries run out drops the request, so
// Timeout's failure slot is Dropped. BreakerOpen keeps its own slot, which
// the report sums into its Shed bucket. Canceled never ends a request.
var outcomeRows = [NumOutcomes]struct {
	name    string
	counted Outcome
}{
	OutcomeOK:          {"ok", OutcomeOK},
	OutcomeTimeout:     {"timeout", OutcomeDropped},
	OutcomeShed:        {"shed", OutcomeShed},
	OutcomeDropped:     {"dropped", OutcomeDropped},
	OutcomeBreakerOpen: {"breaker-open", OutcomeBreakerOpen},
	OutcomeDeadline:    {"deadline", OutcomeDeadline},
	OutcomeCanceled:    {"canceled", OutcomeDropped},
	OutcomeUnreachable: {"unreachable", OutcomeUnreachable},
}

// String names the outcome.
func (o Outcome) String() string {
	if o < NumOutcomes {
		return outcomeRows[o].name
	}
	return "unknown"
}

// Counted is the request counter a request that fails with outcome o is
// counted in (see outcomeRows).
func (o Outcome) Counted() Outcome { return outcomeRows[o].counted }

// Request is an end-to-end user request.
type Request struct {
	ID      ID
	Arrival des.Time // when the client issued it
	Finish  des.Time // when the last leaf job completed (0 while in flight)
	Class   int      // inter-service path choice (e.g. read vs write)
	SizeKB  float64  // payload size, drives per-byte stage costs
	Conn    int      // client connection the request arrived on

	// LeavesRemaining counts path-tree leaves not yet completed; the
	// request finishes when it reaches zero.
	LeavesRemaining int

	// Deadline is the absolute virtual time the request's end-to-end
	// budget expires (0: no budget). Child RPCs inherit the residual
	// implicitly — every tier sees the same absolute deadline, so the
	// remaining budget at any hop is Deadline minus the current time.
	Deadline des.Time

	// TimedOut marks a request whose client gave up waiting; the
	// server-side work still completes (and still holds resources),
	// matching real systems under timeout storms.
	TimedOut bool
	// Failed marks a request that terminated without completing: a
	// resilience policy exhausted its retries, a breaker failed it
	// fast, or a crash dropped its work with nothing left to retry.
	Failed bool
	// Outcome records how the request ended (meaningful once Done,
	// TimedOut, or Failed).
	Outcome Outcome
	// Attempt is 0 for the original request, k for its k-th retry.
	Attempt int

	// Owner is the issuing layer's own per-request state, attached so a
	// job can reach it without a lookup; this package never looks inside.
	Owner any

	// jobs counts the live jobs created for this request and not yet
	// freed: a terminated request can be recycled once it reaches zero.
	jobs int

	// tiers accumulates residence (queueing + service) per tier number the
	// issuing layer assigns; recycling keeps it, cleared.
	tiers []tierVisit
}

// tierVisit is one tier's residence; visited tells zero residence from none.
type tierVisit struct {
	d       des.Time
	visited bool
}

// LiveJobs reports how many of the request's jobs have been created and not
// yet freed. Stray work of a timed-out, failed or out-raced attempt keeps
// its request alive through this count.
func (r *Request) LiveJobs() int { return r.jobs }

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.Finish != 0 }

// Expired reports whether the request's deadline budget has run out at
// virtual time now (always false without a budget).
func (r *Request) Expired(now des.Time) bool {
	return r.Deadline > 0 && now >= r.Deadline
}

// Latency reports end-to-end latency; 0 while in flight.
func (r *Request) Latency() des.Time {
	if !r.Done() {
		return 0
	}
	return r.Finish - r.Arrival
}

// AddTierLatency accrues residence time against tier number tier.
func (r *Request) AddTierLatency(tier int, d des.Time) {
	if tier >= len(r.tiers) {
		grown := make([]tierVisit, tier+1)
		copy(grown, r.tiers)
		r.tiers = grown
	}
	r.tiers[tier].d += d
	r.tiers[tier].visited = true
}

// TierLatency reports the residence accrued against tier number tier and
// whether any job of the request visited that tier.
func (r *Request) TierLatency(tier int) (des.Time, bool) {
	if tier < 0 || tier >= len(r.tiers) {
		return 0, false
	}
	return r.tiers[tier].d, r.tiers[tier].visited
}

// Job is one request's visit to one path node / microservice instance.
type Job struct {
	ID  ID
	Req *Request

	// NodeID is the inter-service path-tree node this job executes.
	NodeID int
	// PathID selects the execution path inside the target microservice.
	PathID int
	// Conn classifies the job into an epoll/socket subqueue.
	Conn int
	// SizeKB drives per-byte costs (socket_read time ∝ bytes).
	SizeKB float64
	// Server is the routing layer's handle for the instance serving the
	// job (and through it the machine), set at routing time; nil before.
	// This package never looks inside.
	Server any

	// Outcome records how this job attempt ended: OK on completion,
	// Timeout when an edge policy abandoned it mid-service (the server
	// still finishes it, but the result is discarded), Shed/Dropped when
	// it never ran to completion, BreakerOpen when it was never issued.
	Outcome Outcome

	Enqueued des.Time // entry into the current stage queue
	Arrived  des.Time // entry into the service (first stage)
	Started  des.Time // first moment a worker picked it up
	Finished des.Time // completion of the service-local path

	// StageIdx is the job's progress through its execution path
	// (index into the path's stage list), maintained by the service
	// runtime.
	StageIdx int

	// Dest and DestPath park the job's final destination while it passes
	// through a machine's network-processing service under that service's
	// own path: Dest is the routing layer's handle for the destination
	// (nil: a response leaving the cluster), DestPath the execution path
	// to restore on arrival.
	Dest     any
	DestPath int

	// Owner is the issuing layer's own state for the call attempt this
	// job carries, attached so its completion or loss reaches that state
	// without a lookup; nil when nothing guards the job. This package
	// never looks inside.
	Owner any
}

// Factory allocates request and job IDs and recycles the storage of freed
// jobs. IDs are never reused; storage is. Jobs come from a slab that holds
// exactly what has been freed, so it is bounded by the peak number of live
// jobs. Request storage belongs to the issuing layer, which recycles it
// through InitRequest.
type Factory struct {
	nextReq ID
	nextJob ID
	jobs    slab.Slab[Job]
}

// NewFactory returns an ID factory starting at 1 (0 is reserved "no id").
func NewFactory() *Factory { return &Factory{nextReq: 1, nextJob: 1} }

// NewRequest creates a request arriving at the given time.
func (f *Factory) NewRequest(arrival des.Time) *Request {
	r := new(Request)
	f.InitRequest(r, arrival)
	return r
}

// InitRequest readies r, fresh or recycled storage with no live jobs, as
// the next request, arriving at the given time. Every field is overwritten
// but Owner, which goes with the storage, and the per-tier storage, kept
// cleared.
func (f *Factory) InitRequest(r *Request, arrival des.Time) {
	owner, tiers := r.Owner, r.tiers
	clear(tiers)
	*r = Request{} // zeroed in place; a literal reading r's own fields is built aside and copied back
	r.ID, r.Arrival, r.Owner, r.tiers = f.nextReq, arrival, owner, tiers
	f.nextReq++
}

// NewJob creates a job belonging to req, overwriting every field of
// recycled storage.
func (f *Factory) NewJob(req *Request) *Job {
	j := f.jobs.Get()
	*j = Job{}
	j.ID = f.nextJob
	j.Req = req
	f.nextJob++
	if req != nil {
		j.SizeKB = req.SizeKB
		j.Conn = req.Conn
		req.jobs++
	}
	return j
}

// Clone creates a fan-out copy of j for another path node, sharing the
// parent request but with a fresh job identity and reset progress.
func (f *Factory) Clone(j *Job) *Job {
	c := f.NewJob(j.Req)
	c.Conn = j.Conn
	c.SizeKB = j.SizeKB
	return c
}

// FreeJob takes back a job nothing references any more: it stops counting
// against its request and its storage is reused by a later NewJob.
func (f *Factory) FreeJob(j *Job) {
	if j.Req != nil {
		j.Req.jobs--
	}
	f.jobs.Put(j)
}
