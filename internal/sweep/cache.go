package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// binaryFingerprint hashes the running executable, once per process.
// Folding it into every cache key means a rebuilt simulator (any code
// change) starts from a cold cache automatically — correctness never
// depends on remembering to bump cacheVersion, which remains for
// invalidating the on-disk format itself. The tradeoff: differently
// built binaries (e.g. cmd/sweep vs a test binary) keep separate cache
// namespaces, and superseded entries linger until the directory is
// deleted. When the binary cannot be read the fingerprint is empty and
// the engine disables caching for the process (see Job.keyPrefix) —
// running fresh is always safe, serving stale never is.
var binaryFingerprint = sync.OnceValue(func() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(exe)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
})

// Cache memoizes finished sweep points on disk, keyed by the
// content hash of everything that determines a point's value (simulator
// version, experiment kind, topology shape, spec, coordinate, windows).
// Entries are immutable JSON files; concurrent writers of the same key
// race benignly to an identical value via atomic rename.
//
// Cache traffic counters go to the cache's registry — obs.Default()
// unless WithRegistry scoped it — so concurrent runs with their own
// registries don't cross-contaminate each other's hit/miss accounting.
type Cache struct {
	dir string
	reg *obs.Registry // nil = obs.Default()

	// touched remembers this process's recent mtime touches (see
	// touch). WithRegistry views share it, so the rate limit is
	// process-wide per directory.
	touched *touchLog
}

// Name identifies the disk backend (sweep.Backend).
func (c *Cache) Name() string { return "disk" }

// WithRegistry returns a view of the cache whose traffic counters go to
// reg instead of the process-wide default registry. The underlying
// directory (and so the entries) is shared with the receiver.
func (c *Cache) WithRegistry(reg *obs.Registry) *Cache {
	cc := *c
	cc.reg = reg
	return &cc
}

// ScopedBackend implements RegistryScoped for the runner: a view
// reporting into reg, unless the cache's registry was already set
// explicitly (an explicit scope wins over the run's).
func (c *Cache) ScopedBackend(reg *obs.Registry) Backend {
	if c.reg != nil {
		return c
	}
	return c.WithRegistry(reg)
}

// DefaultDir returns the user-level cache root (~/.cache/lrscwait on
// Linux, the platform cache dir elsewhere).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("sweep: no user cache dir: %w", err)
	}
	return filepath.Join(base, "lrscwait"), nil
}

// OpenCache opens (creating if needed) a cache rooted at dir. An empty
// dir selects DefaultDir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		var err error
		if dir, err = DefaultDir(); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: create cache dir: %w", err)
	}
	return newCache(dir), nil
}

// newCache returns the cache rooted at dir.
func newCache(dir string) *Cache {
	return &Cache{dir: dir, touched: newTouchLog()}
}

// InspectCache opens an existing cache rooted at dir (empty selects
// DefaultDir) without creating anything on disk — the read-only
// counterpart of OpenCache for inspection paths like -cache-stats, which
// must not conjure an empty cache directory as a side effect of asking
// about one. Returns a "no cache at <dir>" error when the directory does
// not exist.
func InspectCache(dir string) (*Cache, error) {
	if dir == "" {
		var err error
		if dir, err = DefaultDir(); err != nil {
			return nil, err
		}
	}
	info, err := os.Stat(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("sweep: no cache at %s", dir)
		}
		return nil, fmt.Errorf("sweep: stat cache dir: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("sweep: no cache at %s (not a directory)", dir)
	}
	return newCache(dir), nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// entry is the on-disk format. The full key is stored alongside the
// point so hash collisions degrade to a miss, never a wrong value.
type entry struct {
	Key   string `json:"key"`
	Point Point  `json:"point"`
}

// path maps a key to its file: <dir>/<hh>/<hash>.json, sharded by the
// first hash byte to keep directories small. It concatenates rather
// than calling filepath.Join: the hash parts need no cleaning, and the
// path is built on every Get. The key is hashed from a stack buffer:
// []byte(key) would copy a built-in kind's key (about 110 bytes, over
// the runtime's 32-byte temporary) to the heap; only a key longer than
// the buffer goes there.
func (c *Cache) path(key string) string {
	var h [2 * sha256.Size]byte
	var buf [256]byte
	sum := sha256.Sum256(append(buf[:0], key...))
	hex.Encode(h[:], sum[:])
	const sep = string(filepath.Separator)
	return c.dir + sep + string(h[:2]) + sep + string(h[:]) + ".json"
}

// MaxEntryBytes bounds one cache entry, read from disk or from the
// wire. A point is a few hundred bytes; the bound leaves room for
// absurdly wide Extra maps while refusing to buffer unbounded input,
// such as a character device at an entry path. A larger entry is a
// miss.
const MaxEntryBytes = 64 << 20

// readBufs pools Get's read buffers. Every built-in kind's entry fits
// the initial 4 KiB; a larger entry grows the buffer it borrowed.
var readBufs = sync.Pool{New: func() any { b := make([]byte, 4<<10); return &b }}

// errEntryTooLarge fails a read that filled MaxEntryBytes+1 bytes.
var errEntryTooLarge = errors.New("sweep: cache entry over MaxEntryBytes")

// growEntry doubles a full read buffer for readFile, up to one byte
// past MaxEntryBytes, so that a read filling that last byte shows the
// entry is over the bound. readFile hands a grown buffer back to the
// caller's pool slot only after a read that fits, so a read over the
// bound leaves no 64 MiB buffer in the pool.
func growEntry(b []byte) ([]byte, error) {
	if len(b) > MaxEntryBytes {
		return nil, errEntryTooLarge
	}
	n := min(2*len(b), MaxEntryBytes+1)
	return slices.Grow(b, n-len(b))[:n], nil
}

// Get loads the point cached under key; ok is false on miss, corruption,
// or key mismatch.
//
// A hit is one open, one read and one close (readFile), then one
// decode of the canonical point. Put writes exactly
// json.Marshal(entry{key, p}), so the file must open with the canonical
// envelope {"key":<json.Marshal(key)>,"point": and end with },
// compared byte by byte, and the bytes between must be the point as
// json.Marshal lays it out (decodePoint). A hash collision, a
// hand-edited envelope or point, a torn file or an entry over
// MaxEntryBytes is a miss, never a wrong value.
func (c *Cache) Get(key string) (Point, bool) {
	path := c.path(key)
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	p, n, ok := decodeEntry(path, key, buf)
	if !ok {
		c.reg.Counter("sweep.cache.misses").Inc()
		return Point{}, false
	}
	c.reg.Counter("sweep.cache.hits").Inc()
	c.reg.Counter("sweep.cache.read_bytes").Add(uint64(n))
	c.touch(path)
	return p, true
}

// decodeEntry reads the entry at path and returns its point and size
// when it is the canonical entry for key.
func decodeEntry(path, key string, buf *[]byte) (Point, int, bool) {
	b, err := readFile(path, buf)
	if err != nil {
		return Point{}, 0, false
	}
	body, ok := bytes.CutPrefix(b, []byte(`{"key":`))
	if ok {
		body, ok = cutKey(body, key)
	}
	if ok {
		body, ok = bytes.CutPrefix(body, []byte(`,"point":`))
	}
	if ok {
		body, ok = bytes.CutSuffix(body, []byte(`}`))
	}
	var p Point
	if ok {
		p, ok = decodePoint(body)
	}
	return p, len(b), ok
}

// cutKey cuts json.Marshal(key) from the front of b. A key that
// json.Marshal writes verbatim (jsonVerbatim), as every built-in key
// is, is compared in place; any other key is marshaled.
func cutKey(b []byte, key string) ([]byte, bool) {
	for i := 0; i < len(key); i++ {
		if !jsonVerbatim(key[i]) {
			k, err := json.Marshal(key)
			if err != nil {
				return nil, false
			}
			return bytes.CutPrefix(b, k)
		}
	}
	n := len(key)
	if len(b) < n+2 || b[0] != '"' || string(b[1:n+1]) != key || b[n+1] != '"' {
		return nil, false
	}
	return b[n+2:], true
}

// Put stores a point under key. Writes go through a same-directory temp
// file and rename, so readers never observe a torn entry. The new
// file's mtime is the write time, which GC reads as recency.
func (c *Cache) Put(key string, p Point) error {
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(entry{Key: key, Point: p})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		// Without this the temp file outlives the failed store and
		// accumulates in the shard directory (Stats reaps stale ones as
		// a backstop, but don't create the garbage in the first place).
		os.Remove(tmp.Name())
		return err
	}
	c.reg.Counter("sweep.cache.stores").Inc()
	c.reg.Counter("sweep.cache.store_bytes").Add(uint64(len(b)))
	return nil
}

// CacheStats describes the on-disk state of a cache directory plus the
// process's hit/miss traffic against it (from the obs registry — zero
// when no run consulted the cache in this process).
type CacheStats struct {
	Dir        string `json:"dir"`
	Entries    int    `json:"entries"`
	TotalBytes int64  `json:"totalBytes"`

	// Orphaned write-temp files (.tmp-*) found in the cache tree: the
	// residue of interrupted or failed stores. Stale ones (older than
	// tempMaxAge — a live write holds its temp file for milliseconds)
	// are removed during the scan and counted in TempReaped.
	TempFiles  int   `json:"tempFiles,omitempty"`
	TempBytes  int64 `json:"tempBytes,omitempty"`
	TempReaped int   `json:"tempReaped,omitempty"`

	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Stores     uint64 `json:"stores"`
	ReadBytes  uint64 `json:"readBytes"`
	StoreBytes uint64 `json:"storeBytes"`
}

// tempMaxAge is how old a .tmp-* file must be before Stats treats it as
// orphaned rather than an in-flight write and reaps it.
const tempMaxAge = time.Hour

// Stats walks the cache directory counting entries and bytes, and folds
// in this cache's registry counters. Orphaned write-temp files are
// counted, and stale ones reaped.
func (c *Cache) Stats() (CacheStats, error) {
	st := CacheStats{Dir: c.dir}
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			info, err := d.Info()
			if err != nil {
				return err
			}
			st.TempFiles++
			st.TempBytes += info.Size()
			if time.Since(info.ModTime()) > tempMaxAge && os.Remove(path) == nil {
				st.TempReaped++
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".json") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		st.Entries++
		st.TotalBytes += info.Size()
		return nil
	})
	if err != nil {
		return CacheStats{}, fmt.Errorf("sweep: scan cache: %w", err)
	}
	snap := c.reg.Snapshot()
	st.Hits = snap.Counter("sweep.cache.hits")
	st.Misses = snap.Counter("sweep.cache.misses")
	st.Stores = snap.Counter("sweep.cache.stores")
	st.ReadBytes = snap.Counter("sweep.cache.read_bytes")
	st.StoreBytes = snap.Counter("sweep.cache.store_bytes")
	return st, nil
}

// Summary renders the stats as the -cache-stats report. The temp-file
// line appears only when there was something to report, so the common
// clean-cache output is unchanged.
func (st CacheStats) Summary() string {
	s := fmt.Sprintf("cache %s: %d entries, %d bytes on disk\n"+
		"this process: %d hits, %d misses, %d stores (%d bytes read, %d bytes written)",
		st.Dir, st.Entries, st.TotalBytes,
		st.Hits, st.Misses, st.Stores, st.ReadBytes, st.StoreBytes)
	if st.TempFiles > 0 {
		s += fmt.Sprintf("\norphaned temp files: %d (%d bytes), %d stale reaped",
			st.TempFiles, st.TempBytes, st.TempReaped)
	}
	return s
}
