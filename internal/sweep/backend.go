package sweep

import "repro/internal/obs"

// Backend is the pluggable point-store behind the sweep engine: anything
// that can memoize finished Points under their content-hash keys. The
// local disk Cache is the canonical implementation ("disk"); the fabric
// package adds an HTTP remote backend and a tiered (disk-in-front-of-
// remote) composition, and out-of-tree stores implement it the same way.
//
// Contract: Get returns (zero, false) on miss or any internal failure —
// a backend degrades to "compute locally", it never fails a sweep. Put
// is best-effort for the same reason (the engine ignores its error on
// the hot path; a failed store only costs a future re-run). Both must be
// safe for concurrent use. Keys are opaque content hashes: identical key
// implies identical value, so racing writers are benign.
type Backend interface {
	// Name identifies the backend kind ("disk", "http", "tiered") in
	// logs and stats.
	Name() string
	// Get loads the point stored under key; ok is false on miss or
	// failure.
	Get(key string) (Point, bool)
	// Put stores a point under key.
	Put(key string, p Point) error
}

// RegistryScoped is an optional Backend extension: the sweep runner uses
// it to scope a backend's traffic counters to the run's obs registry
// (Runner.Obs) so concurrent runs don't cross-contaminate each other's
// accounting. ScopedBackend returns a view of the backend reporting into
// reg — or the receiver itself when its registry was already set
// explicitly.
type RegistryScoped interface {
	ScopedBackend(reg *obs.Registry) Backend
}

// StatsReporter is an optional Backend extension for backends that can
// describe their stored state (the disk Cache). Remote backends
// typically cannot enumerate the far side and simply don't implement it.
type StatsReporter interface {
	Stats() (CacheStats, error)
}

// Fingerprint returns the running binary's content hash — the fragment
// every cache key is prefixed with, so a rebuilt simulator starts cold
// automatically. Empty when the binary cannot be read, in which case
// point caching is disabled for the process (and the fabric serves
// without ETags: identity cannot be guaranteed across rebuilds).
func Fingerprint() string { return binaryFingerprint() }

// nilBackend reports whether b is nil or a typed-nil *Cache wrapped in
// the interface — the classic trap at call sites that build a *Cache
// (possibly nil, e.g. cmd/sweep with -cache off) and assign it to the
// Runner's Backend-typed field.
func nilBackend(b Backend) bool {
	if b == nil {
		return true
	}
	c, ok := b.(*Cache)
	return ok && c == nil
}
