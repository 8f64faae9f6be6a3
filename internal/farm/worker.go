package farm

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The worker protocol is newline-delimited JSON over the subprocess's
// standard pipes, chosen so a crashed worker is indistinguishable from a
// closed pipe and a hung worker from a silent one — the two failure
// signals the dispatcher's leases and watchdogs are built around.
//
//	dispatcher → worker: {"job": {...}, "attempt": N}   one per line
//	worker → dispatcher: {"type": "heartbeat", ...}     while running
//	                     {"type": "result", ...}        on success
//	                     {"type": "error", ...}         on in-process failure
//
// A worker exits 0 when its stdin closes. It never writes spool files
// itself: results travel through the dispatcher, the journal's single
// writer, so a SIGKILL at any instant can at worst kill an unsent line.

// dispatchMsg is one job assignment. Attempt is the dispatcher's attempt
// counter for the job (1 = first try); workers are stateless across
// respawns, so the counter must travel with the job — the test-only fault
// hooks depend on it to fail an exact number of times.
type dispatchMsg struct {
	Job     JobSpec `json:"job"`
	Attempt int     `json:"attempt"`
}

// workerMsg is one line of worker → dispatcher traffic.
type workerMsg struct {
	Type   string  `json:"type"`
	Hash   string  `json:"hash"`
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// Test-only fault hooks, honored by workers so the farm's own failure
// paths can be exercised deterministically. The value is "<key>@<n>":
// jobs whose Key contains <key> crash (os.Exit) or hang on attempts
// 1..n; "@<n>" alone matches every job. Production campaigns leave both
// unset.
const (
	EnvTestCrash = "UQSIM_FARM_TEST_CRASH"
	EnvTestHang  = "UQSIM_FARM_TEST_HANG"
)

// testHook parses an env hook value against a job and attempt.
func testHook(env string, job JobSpec, attempt int) bool {
	key, nStr, ok := strings.Cut(env, "@")
	if !ok {
		return false
	}
	n, err := strconv.Atoi(nStr)
	if err != nil {
		return false
	}
	return strings.Contains(job.Key(), key) && attempt <= n
}

// WorkerMain is the body of `uqsim farm -worker`: it executes dispatched
// jobs against configDir sequentially, emitting a heartbeat every
// heartbeat interval while a job runs. It returns when in closes (normal
// retirement) and surfaces only protocol-level failures — a job that
// fails in-process is reported as an error message, not an exit.
func WorkerMain(configDir string, heartbeat time.Duration, in io.Reader, out io.Writer) error {
	exec, err := NewExecutor(configDir)
	if err != nil {
		// Refusing to start is a crash from the dispatcher's view; it will
		// respawn with backoff and eventually quarantine the leased jobs.
		return err
	}
	var mu sync.Mutex
	enc := json.NewEncoder(out)
	send := func(m *workerMsg) error {
		mu.Lock()
		defer mu.Unlock()
		return enc.Encode(m)
	}

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var msg dispatchMsg
		if err := json.Unmarshal(line, &msg); err != nil {
			return fmt.Errorf("farm: worker received undecodable dispatch: %w", err)
		}
		hash := msg.Job.Hash()

		if testHook(os.Getenv(EnvTestCrash), msg.Job, msg.Attempt) {
			os.Exit(3) // simulated worker crash, mid-lease
		}

		stop := make(chan struct{})
		var hb sync.WaitGroup
		hb.Add(1)
		go func() {
			defer hb.Done()
			t := time.NewTicker(heartbeat)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					send(&workerMsg{Type: "heartbeat", Hash: hash})
				}
			}
		}()

		var res *Result
		var jobErr error
		if testHook(os.Getenv(EnvTestHang), msg.Job, msg.Attempt) {
			// Simulated hang: heartbeats keep flowing, the job never
			// finishes. Only the per-job wall-clock watchdog can save the
			// campaign.
			time.Sleep(10 * time.Minute)
			jobErr = fmt.Errorf("farm: test hang elapsed")
		} else {
			res, jobErr = exec.Execute(msg.Job)
		}
		close(stop)
		hb.Wait()

		var m workerMsg
		if jobErr != nil {
			m = workerMsg{Type: "error", Hash: hash, Error: jobErr.Error()}
		} else {
			m = workerMsg{Type: "result", Hash: hash, Result: res}
		}
		if err := send(&m); err != nil {
			return fmt.Errorf("farm: worker result pipe: %w", err)
		}
	}
	return sc.Err()
}
