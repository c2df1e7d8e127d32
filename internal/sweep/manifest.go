package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// ManifestSchema identifies the run-manifest JSON format. Bump on any
// incompatible change to Manifest's shape.
const ManifestSchema = "lrscwait/run-manifest/v1"

// Environment captures where a run executed — everything about the host
// that could explain a timing difference between two manifests of the
// same job.
type Environment struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numCPU"`
}

// CaptureEnv snapshots the current process environment.
func CaptureEnv() Environment {
	return Environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// ManifestJob describes one job of the run: the normalized spec, its
// content hash (what the cache keys derive from, minus the binary
// fingerprint — two binaries hashing the spec identically ran the same
// experiment), and the result's shape.
type ManifestJob struct {
	Kind     string   `json:"kind"`
	SpecHash string   `json:"specHash"`
	Job      Job      `json:"job"`
	Cores    int      `json:"cores"`
	Series   []string `json:"series"`
	Points   int      `json:"points"`
}

// Manifest is the run record emitted next to sweep results: what was
// run (normalized job specs with content hashes), where (environment),
// how (workers, cache), and what it cost (RunStats with per-point
// timings and the full run-scoped metric snapshot). Results stay
// byte-identical across runs; the manifest is where all run-dependent
// observability data lives.
type Manifest struct {
	Schema  string        `json:"schema"`
	Env     Environment   `json:"env"`
	Workers int           `json:"workers"`
	Cache   string        `json:"cache,omitempty"` // cache dir, empty when caching was off
	Jobs    []ManifestJob `json:"jobs"`
	Stats   RunStats      `json:"stats"`
}

// specHash content-hashes a normalized job spec via its canonical JSON.
func specHash(job Job) string {
	b, err := json.Marshal(job)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// NewManifest assembles the manifest for a finished RunAll invocation.
// results must be the slice RunAll returned (normalized jobs); st its
// stats. cacheDir is empty when the run had no cache.
func NewManifest(results []*Result, st RunStats, cacheDir string) Manifest {
	m := Manifest{
		Schema:  ManifestSchema,
		Env:     CaptureEnv(),
		Workers: st.Workers,
		Cache:   cacheDir,
		Stats:   st,
	}
	for _, res := range results {
		mj := ManifestJob{
			Kind:     string(res.Job.Kind),
			SpecHash: specHash(res.Job),
			Job:      res.Job,
			Cores:    res.Cores,
		}
		for _, s := range res.Series {
			mj.Series = append(mj.Series, s.Name)
			mj.Points += len(s.Points)
		}
		m.Jobs = append(m.Jobs, mj)
	}
	return m
}

// JSON renders the manifest as indented JSON. Deterministic except for
// the timing fields and the environment — which is the point: a diff of
// two manifests of the same job shows exactly the run-dependent parts.
func (m Manifest) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the manifest to path.
func (m Manifest) WriteFile(path string) error {
	b, err := m.JSON()
	if err != nil {
		return fmt.Errorf("sweep: encode manifest: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("sweep: write manifest: %w", err)
	}
	return nil
}
