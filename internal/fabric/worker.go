package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/work"
)

// Worker is the `sweep worker -join` loop: long-poll the coordinator
// for a lease, expand the leased job locally (deterministic — same
// binary, same items), compute the leased indices across the local
// pool, Put each point into the shared backend under the coordinator's
// keys, and report completion. Idle workers park in the coordinator's
// long poll; they never spin.
type Worker struct {
	// Coordinator is the serve node's base URL, e.g. "http://host:8080".
	Coordinator string
	// Name identifies the worker in coordinator logs (default: host:pid).
	Name string
	// Client overrides the HTTP client. The default has no global
	// timeout: lease calls long-poll and Put sizes vary; per-call
	// bounds come from the protocol's wait parameter.
	Client *http.Client
	// Workers is the local compute pool width; <= 0 selects GOMAXPROCS.
	Workers int
	// MaxPoints caps the points per lease (default defaultLeaseMax).
	MaxPoints int
	// Wait is the long-poll duration per lease request (default
	// defaultLeaseWait, capped server-side at maxLeaseWait).
	Wait time.Duration
	// IdleExit, when positive, makes Run return nil after that much
	// continuous time without work — the CI-smoke and batch-queue mode.
	// Zero means serve forever (until ctx cancels).
	IdleExit time.Duration
	// Log receives progress lines (Printf-shaped); nil is silent.
	Log func(format string, args ...any)
	// Obs scopes the worker's fabric.* counters; nil uses obs.Default.
	Obs *obs.Registry
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) base() string { return strings.TrimSuffix(w.Coordinator, "/") }

func (w *Worker) name() string {
	if w.Name != "" {
		return w.Name
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// Run joins the coordinator and processes leases until ctx cancels, the
// idle-exit window elapses, or the coordinator stays unreachable past
// the retry budget. A fingerprint mismatch is a hard error: a worker
// built from different code must not publish points under the
// coordinator's keys.
func (w *Worker) Run(ctx context.Context) error {
	// Results travel through the coordinator's cache surface: the worker
	// is just a Remote-backend writer plus a compute pool.
	backend := NewRemote(w.Coordinator, RemoteClient(w.client()))
	backend.reg = w.Obs
	idleSince := time.Now()
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lease, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if w.IdleExit > 0 && time.Since(idleSince) >= w.IdleExit {
				return fmt.Errorf("fabric: coordinator unreachable: %w", err)
			}
			w.logf("worker: lease: %v (retrying)", err)
			select {
			case <-time.After(2 * time.Second):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if lease == nil {
			// Empty long poll: the idle path. No sleep — the wait
			// happened server-side.
			if w.IdleExit > 0 && time.Since(idleSince) >= w.IdleExit {
				w.logf("worker: idle %v, exiting", w.IdleExit)
				return nil
			}
			continue
		}
		idleSince = time.Now()
		if fp := sweep.Fingerprint(); lease.Fingerprint != "" && lease.Fingerprint != fp {
			return fmt.Errorf("fabric: binary fingerprint mismatch (coordinator %.12s, worker %.12s) — rebuild from the coordinator's code",
				lease.Fingerprint, fp)
		}
		done, err := w.process(lease, backend)
		if err != nil {
			// A broken lease (bad job, short keys) is a protocol error
			// worth surfacing; the coordinator requeues via TTL.
			return err
		}
		w.Obs.Counter("fabric.worker.leases").Inc()
		w.Obs.Counter("fabric.worker.points").Add(uint64(len(done)))
		w.logf("worker: computed %d/%d points of %s", len(done), len(lease.Indices), lease.Job.Kind)
		if err := w.complete(ctx, lease.ID, done); err != nil {
			w.logf("worker: complete: %v (lease %s will expire and requeue)", err, lease.ID)
		}
	}
}

// lease asks the coordinator for work, parking up to Wait server-side.
// Returns (nil, nil) on an empty poll.
func (w *Worker) lease(ctx context.Context) (*Lease, error) {
	wait := w.Wait
	if wait <= 0 {
		wait = defaultLeaseWait
	}
	body, err := json.Marshal(LeaseRequest{Worker: w.name(), Max: w.MaxPoints, WaitMs: int(wait / time.Millisecond)})
	if err != nil {
		return nil, err
	}
	// The request's own deadline leaves headroom over the server-side
	// park so a full wait is a 204, not a client timeout.
	rctx, cancel := context.WithTimeout(ctx, wait+15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.base()+"/v1/work/lease", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var l Lease
		if err := json.NewDecoder(io.LimitReader(resp.Body, sweep.MaxEntryBytes)).Decode(&l); err != nil {
			return nil, fmt.Errorf("fabric: decode lease: %w", err)
		}
		return &l, nil
	default:
		return nil, fmt.Errorf("fabric: lease: %s", resp.Status)
	}
}

// process computes a lease's points and publishes them through the
// backend; it returns the indices whose Puts succeeded.
func (w *Worker) process(l *Lease, backend sweep.Backend) ([]int, error) {
	if len(l.Indices) != len(l.Keys) {
		return nil, fmt.Errorf("fabric: lease %s has %d indices but %d keys", l.ID, len(l.Indices), len(l.Keys))
	}
	e, err := sweep.ExpandJob(l.Job)
	if err != nil {
		return nil, fmt.Errorf("fabric: expand leased job: %w", err)
	}
	for _, idx := range l.Indices {
		if idx < 0 || idx >= len(e.Items) {
			return nil, fmt.Errorf("fabric: lease %s index %d out of range (%d items)", l.ID, idx, len(e.Items))
		}
	}
	ok := make([]bool, len(l.Indices))
	pool := work.Pool{Workers: w.Workers}
	pool.MapWorkers(len(l.Indices), func(_, i int) {
		p := e.Items[l.Indices[i]].Compute()
		if err := backend.Put(l.Keys[i], p); err == nil {
			ok[i] = true
		}
	})
	var done []int
	for i, idx := range l.Indices {
		if ok[i] {
			done = append(done, idx)
		}
	}
	return done, nil
}

// complete reports a finished lease.
func (w *Worker) complete(ctx context.Context, leaseID string, done []int) error {
	body, err := json.Marshal(CompleteRequest{LeaseID: leaseID, Done: done})
	if err != nil {
		return err
	}
	rctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.base()+"/v1/work/complete", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fabric: complete: %s", resp.Status)
	}
	return nil
}
