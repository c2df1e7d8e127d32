package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Remote is a sweep.Backend talking to another node's /v1/cache surface
// (a `sweep serve` instance, or anything speaking the same protocol).
//
// Failure posture: the remote is an accelerator, never a dependency.
// Transient failures retry with capped exponential backoff inside a
// per-request budget; a request that exhausts its retries reports a
// miss (Get) or an error the engine ignores (Put), so the caller
// degrades to computing locally — counted under fabric.degraded — and
// the sweep always completes. A definitive miss (404) never retries:
// absence is an answer, not a fault.
type Remote struct {
	base string
	c    *http.Client
	reg  *obs.Registry // nil = obs.Default()

	attempts int           // total tries per request
	backoff  time.Duration // wait after the first failed try, doubling up to maxBackoff
}

// maxBackoff caps the wait between a Remote's retries.
const maxBackoff = 2 * time.Second

// NewRemote returns a backend for the node at base (e.g.
// "http://host:8080"). The default client applies a 15s per-request
// timeout; pass a custom one with RemoteClient.
func NewRemote(base string, opts ...RemoteOption) *Remote {
	r := &Remote{
		base:     strings.TrimSuffix(base, "/"),
		c:        &http.Client{Timeout: 15 * time.Second},
		attempts: 3,
		backoff:  100 * time.Millisecond,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// RemoteOption configures NewRemote.
type RemoteOption func(*Remote)

// RemoteClient substitutes the HTTP client (timeout policy, transport).
func RemoteClient(c *http.Client) RemoteOption { return func(r *Remote) { r.c = c } }

// RemoteRetries sets the attempt count and initial backoff (defaults 3
// and 100ms).
func RemoteRetries(attempts int, backoff time.Duration) RemoteOption {
	return func(r *Remote) { r.attempts, r.backoff = attempts, backoff }
}

// Name identifies the backend kind.
func (r *Remote) Name() string { return "http" }

// ScopedBackend implements sweep.RegistryScoped.
func (r *Remote) ScopedBackend(reg *obs.Registry) sweep.Backend {
	if r.reg != nil {
		return r
	}
	rr := *r
	rr.reg = reg
	return &rr
}

// retry runs op up to attempts times with capped exponential backoff.
// op returns done=true to stop (success or definitive answer).
func (r *Remote) retry(op func() (done bool, err error)) error {
	attempts := max(r.attempts, 1)
	wait := r.backoff
	var last error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(wait)
			wait = min(2*wait, maxBackoff)
		}
		done, err := op()
		if done {
			return err
		}
		last = err
	}
	r.reg.Counter("fabric.remote.errors").Inc()
	return last
}

// Get fetches the point stored under key on the remote node. Any
// failure after retries degrades to a miss (the caller computes
// locally), counted under fabric.degraded.
func (r *Remote) Get(key string) (sweep.Point, bool) {
	r.reg.Counter("fabric.remote.gets").Inc()
	var p sweep.Point
	found := false
	err := r.retry(func() (bool, error) {
		resp, err := r.c.Get(r.base + "/v1/cache?key=" + url.QueryEscape(key))
		if err != nil {
			return false, err
		}
		defer func() {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		switch resp.StatusCode {
		case http.StatusOK:
			var e CacheEntry
			if err := json.NewDecoder(io.LimitReader(resp.Body, sweep.MaxEntryBytes)).Decode(&e); err != nil {
				return false, fmt.Errorf("fabric: decode cache entry: %w", err)
			}
			if e.Key != key {
				// A confused or malicious far side must degrade to a
				// miss, never corrupt a result.
				return true, fmt.Errorf("fabric: remote returned key %q for %q", e.Key, key)
			}
			p, found = e.Point, true
			return true, nil
		case http.StatusNotFound:
			return true, nil // definitive miss, no retry
		default:
			return false, fmt.Errorf("fabric: remote get: %s", resp.Status)
		}
	})
	if err != nil {
		r.reg.Counter("fabric.degraded").Inc()
	}
	if found {
		r.reg.Counter("fabric.remote.hits").Inc()
	} else {
		r.reg.Counter("fabric.remote.misses").Inc()
	}
	return p, found
}

// Put stores a point under key on the remote node (write-through from
// workers and tiered backends). The returned error is informational —
// the sweep engine treats Put as best-effort.
func (r *Remote) Put(key string, p sweep.Point) error {
	r.reg.Counter("fabric.remote.puts").Inc()
	body, err := json.Marshal(CacheEntry{Key: key, Point: p})
	if err != nil {
		return err
	}
	return r.retry(func() (bool, error) {
		req, err := http.NewRequest(http.MethodPut, r.base+"/v1/cache", bytes.NewReader(body))
		if err != nil {
			return true, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.c.Do(req)
		if err != nil {
			return false, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusOK {
			return true, nil
		}
		// 4xx is definitive (the far side rejected the entry); 5xx and
		// transport errors retry.
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return true, fmt.Errorf("fabric: remote put: %s", resp.Status)
		}
		return false, fmt.Errorf("fabric: remote put: %s", resp.Status)
	})
}
