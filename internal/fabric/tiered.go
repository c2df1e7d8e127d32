package fabric

import (
	"errors"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Tiered layers a local backend in front of a remote one: reads hit the
// local layer first and fall back to the remote (populating the local
// layer on the way back, so the second read is a disk hit); writes go
// through to both. The common deployment is a disk cache in front of a
// Remote — every node keeps its own warm working set while the fleet
// shares one logical store.
type Tiered struct {
	local, remote sweep.Backend
	reg           *obs.Registry
}

// NewTiered composes local-in-front-of-remote.
func NewTiered(local, remote sweep.Backend) *Tiered {
	return &Tiered{local: local, remote: remote}
}

// Name identifies the backend kind.
func (t *Tiered) Name() string { return "tiered" }

// ScopedBackend implements sweep.RegistryScoped, scoping both layers
// (when they support it) so a run's tiered traffic lands in one
// registry.
func (t *Tiered) ScopedBackend(reg *obs.Registry) sweep.Backend {
	if t.reg != nil {
		return t
	}
	tt := *t
	tt.reg = reg
	if rs, ok := tt.local.(sweep.RegistryScoped); ok {
		tt.local = rs.ScopedBackend(reg)
	}
	if rs, ok := tt.remote.(sweep.RegistryScoped); ok {
		tt.remote = rs.ScopedBackend(reg)
	}
	return &tt
}

// Get reads local first, then remote; a remote hit back-fills the local
// layer so the point is a disk read next time.
func (t *Tiered) Get(key string) (sweep.Point, bool) {
	if p, ok := t.local.Get(key); ok {
		t.reg.Counter("fabric.tiered.local_hits").Inc()
		return p, true
	}
	p, ok := t.remote.Get(key)
	if !ok {
		return sweep.Point{}, false
	}
	t.reg.Counter("fabric.tiered.remote_hits").Inc()
	_ = t.local.Put(key, p) // best-effort back-fill
	return p, true
}

// Put writes through to both layers. The local write happens first so a
// crash mid-Put leaves at worst a locally-cached point the fleet hasn't
// seen — never a shared entry the writer itself cannot read back.
func (t *Tiered) Put(key string, p sweep.Point) error {
	return errors.Join(t.local.Put(key, p), t.remote.Put(key, p))
}
