package queueing

import (
	"testing"

	"uqsim/internal/job"
)

func benchQueue(b *testing.B, q Queue, conns int) {
	b.Helper()
	f := job.NewFactory()
	jobs := make([]*job.Job, 1024)
	for i := range jobs {
		jobs[i] = f.NewJob(nil)
		jobs[i].Conn = i % conns
	}
	var buf []*job.Job
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			q.Push(j)
		}
		for q.Len() > 0 {
			buf = q.PopInto(buf[:0], 16)
		}
	}
}

func BenchmarkFIFOPushPop(b *testing.B)    { benchQueue(b, NewFIFO(), 1) }
func BenchmarkEpollPushPop(b *testing.B)   { benchQueue(b, NewEpoll(4), 32) }
func BenchmarkSocketPushPop(b *testing.B)  { benchQueue(b, NewSocket(4), 32) }
func BenchmarkEpollManyConns(b *testing.B) { benchQueue(b, NewEpoll(4), 512) }
