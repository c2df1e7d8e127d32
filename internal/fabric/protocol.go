// Package fabric is the sweep service layer: it turns the engine's
// content-addressed point identities into a wire protocol, so figure and
// table requests can be served over HTTP from a warm cache (computing on
// miss exactly once, however many clients ask concurrently) and a job's
// grid points can be sharded across worker machines.
//
// The package follows the source paper's thesis at system scale:
// polling and retrying are the enemies of scale. Concurrent identical
// requests collapse into one computation with wake-on-ready followers
// (singleflight, no retry loop); warm traffic is answered from the
// backend without ever touching the simulator; conditional requests
// (If-None-Match against cache-key-derived ETags) don't even transfer
// the body; and workers park in long-poll leases instead of busy-polling
// a queue.
//
// Pieces:
//
//   - Server: the HTTP surface (`sweep serve`). GET /v1/kind/{name}
//     answers any registered scenario in json/csv/table form;
//     GET|PUT /v1/cache expose the node's backend to remote clients;
//     POST /v1/work/lease|complete is the worker protocol; /healthz and
//     /metricz report liveness and the obs registry.
//   - Remote: a sweep.Backend client for another node's /v1/cache —
//     capped-exponential-backoff retries, per-request timeouts, and
//     graceful degradation to compute-locally when the far side is down.
//   - Tiered: local disk in front of a Remote, write-through.
//   - Worker: the `sweep worker -join` loop — lease, compute, Put
//     results into the shared backend, complete.
//
// Every served job finishes through sweep.Runner, the one code path
// that places points into a Result. Dispatch only runs ahead of it: it
// leases the job's backend misses to workers and waits, and the Runner
// then reads their points back as cache hits and computes whatever is
// still missing.
package fabric

import "repro/internal/sweep"

// ProtocolVersion prefixes every fabric route ("/v1/..."). Bump on any
// incompatible change to the wire types below.
const ProtocolVersion = "v1"

// CacheEntry is the wire form of one cached point: the full key rides
// along so hash collisions and misdirected writes degrade to a miss,
// never a wrong value (same contract as the disk cache's on-disk form).
type CacheEntry struct {
	Key   string      `json:"key"`
	Point sweep.Point `json:"point"`
}

// LeaseRequest asks the coordinator for work. Wait is how long the
// coordinator may park the request waiting for work to arrive (long
// poll — the polling-free idle path); Max caps the number of points per
// lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
	WaitMs int    `json:"waitMs,omitempty"`
}

// Lease is one batch of work: item indices into the deterministic
// expansion of Job (sweep.ExpandJob on any machine running the same
// binary yields the same item list), plus the coordinator's cache key
// for each index — workers Put computed points under these keys, so key
// derivation stays entirely on the coordinator. Fingerprint is the
// coordinator's binary hash; a worker built from different code must
// refuse the lease rather than risk publishing divergent values under
// the coordinator's keys.
type Lease struct {
	ID          string    `json:"id"`
	Job         sweep.Job `json:"job"`
	Indices     []int     `json:"indices"`
	Keys        []string  `json:"keys"`
	Fingerprint string    `json:"fingerprint,omitempty"`
}

// CompleteRequest reports a finished lease: Done lists the indices whose
// points the worker stored in the shared backend. Indices leased but not
// listed are requeued immediately.
type CompleteRequest struct {
	LeaseID string `json:"leaseId"`
	Done    []int  `json:"done"`
}
