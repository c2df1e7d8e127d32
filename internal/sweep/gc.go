package sweep

// Size-bounded LRU eviction for the disk cache. The cache itself is
// append-only (immutable content-addressed entries), so lifecycle is a
// separate, explicitly invoked pass: `sweep -cache-gc -cache-max-bytes N`
// calls Cache.GC, which evicts least-recently-used entries until the
// directory fits the budget.
//
// Recency is each entry file's modification time. A Put's rename gives
// the entry a fresh mtime, and a Get hit moves it forward again —
// rate limited per process, so a hot serve loop re-reading the same
// points does not pay a syscall per request.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// touchInterval rate-limits per-entry mtime updates: an entry touched
// within the interval is not touched again. Eviction order only needs
// coarse recency. The serve path answers repeat requests from memory
// and reads a job's points again once that memory is as old as this
// interval (fabric's memoRefresh), so the entries of the jobs it serves
// are still touched at this granularity.
const touchInterval = 5 * time.Minute

// touch moves the entry's mtime to now (best-effort, rate-limited): a
// lost touch only skews eviction order, never correctness.
func (c *Cache) touch(path string) { c.touchAt(path, time.Now()) }

// touchAt is touch at the given time.
func (c *Cache) touchAt(path string, now time.Time) {
	if c.touched.due(path, now) {
		os.Chtimes(path, now, now)
	}
}

// minTouchPrune is the fewest remembered touches that trigger a prune.
const minTouchPrune = 1024

// touchLog remembers when this process last touched each entry path.
// Only touches within touchInterval matter, so when the log doubles
// since its last prune it drops the older ones: a long-running server
// holds about twice the entries it touched in the last interval, not
// every entry it ever read.
type touchLog struct {
	mu    sync.Mutex
	last  map[string]time.Time
	prune int // len(last) that triggers the next prune
}

func newTouchLog() *touchLog {
	return &touchLog{last: map[string]time.Time{}, prune: minTouchPrune}
}

// due reports whether path is due a touch at now, and if so records it.
func (l *touchLog) due(path string, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t, ok := l.last[path]; ok && now.Sub(t) < touchInterval {
		return false
	}
	if len(l.last) >= l.prune {
		for p, t := range l.last {
			if now.Sub(t) >= touchInterval {
				delete(l.last, p)
			}
		}
		l.prune = max(minTouchPrune, 2*len(l.last))
	}
	l.last[path] = now
	return true
}

// GCStats reports one eviction pass.
type GCStats struct {
	Dir      string `json:"dir"`
	MaxBytes int64  `json:"maxBytes"`

	Entries    int   `json:"entries"`    // entries before the pass
	TotalBytes int64 `json:"totalBytes"` // bytes before the pass

	Evicted      int   `json:"evicted"`
	EvictedBytes int64 `json:"evictedBytes"`
}

// Remaining returns the post-pass footprint.
func (st GCStats) Remaining() (entries int, bytes int64) {
	return st.Entries - st.Evicted, st.TotalBytes - st.EvictedBytes
}

// Summary renders the stats as the -cache-gc report.
func (st GCStats) Summary() string {
	entries, bytes := st.Remaining()
	return fmt.Sprintf("cache %s: evicted %d of %d entries (%d of %d bytes), %d entries (%d bytes) remain under the %d-byte budget",
		st.Dir, st.Evicted, st.Entries, st.EvictedBytes, st.TotalBytes, entries, bytes, st.MaxBytes)
}

// GC evicts least-recently-used entries, by file mtime, until the
// cache's entry bytes fit maxBytes (0 evicts everything). Concurrent
// Gets racing an eviction degrade to a miss — never a wrong value —
// and concurrent Puts may push the directory back over budget, which
// the next pass reclaims.
func (c *Cache) GC(maxBytes int64) (GCStats, error) {
	if maxBytes < 0 {
		return GCStats{}, fmt.Errorf("sweep: negative cache budget %d", maxBytes)
	}
	st := GCStats{Dir: c.dir, MaxBytes: maxBytes}
	type ent struct {
		path string
		size int64
		last time.Time
	}
	var ents []ent
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".json") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		ents = append(ents, ent{path: path, size: info.Size(), last: info.ModTime()})
		st.Entries++
		st.TotalBytes += info.Size()
		return nil
	})
	if err != nil {
		return GCStats{}, fmt.Errorf("sweep: scan cache: %w", err)
	}
	// Oldest first; ties broken by path so the pass is deterministic.
	sort.Slice(ents, func(i, j int) bool {
		if !ents[i].last.Equal(ents[j].last) {
			return ents[i].last.Before(ents[j].last)
		}
		return ents[i].path < ents[j].path
	})
	remaining := st.TotalBytes
	for _, e := range ents {
		if remaining <= maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil {
			// Already gone (concurrent GC) counts as evicted space;
			// anything else is reported after finishing the pass.
			if !os.IsNotExist(err) {
				return st, fmt.Errorf("sweep: evict %s: %w", e.path, err)
			}
		}
		remaining -= e.size
		st.Evicted++
		st.EvictedBytes += e.size
	}
	c.reg.Counter("sweep.cache.evictions").Add(uint64(st.Evicted))
	c.reg.Counter("sweep.cache.evicted_bytes").Add(uint64(st.EvictedBytes))
	return st, nil
}
