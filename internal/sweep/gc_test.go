package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// bigPoint builds a point whose marshalled entry is about 20 KB, far
// above any point a built-in kind stores.
func bigPoint() Point {
	p := Point{X: 1, Throughput: 3.14}
	p.Extra = map[string]float64{}
	for i := 0; i < 400; i++ {
		p.Extra[fmt.Sprintf("metric_with_a_long_descriptive_name_%03d", i)] = float64(i) * 0.125
	}
	return p
}

// TestCacheLargeEntryRoundTrip pins the one on-disk format: an entry of
// any size is stored as plain JSON (readable with cat/jq) and reads
// back identically.
func TestCacheLargeEntryRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := bigPoint()
	if err := c.Put("big-key", want); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(c.path("big-key"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 16<<10 {
		t.Fatalf("entry is %d bytes; the test needs a large one", len(raw))
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil || e.Key != "big-key" {
		t.Fatalf("large entry is not plain JSON: %v", err)
	}
	got, ok := c.Get("big-key")
	if !ok {
		t.Fatal("large entry missed on read-back")
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(e.Point, want) {
		t.Fatal("large entry round-tripped to a different point")
	}
}

// ageEntries sets each key's entry mtime to the given age before now
// and returns the size of one aged entry (the tests' entries are all
// one size).
func ageEntries(t *testing.T, c *Cache, ages map[string]time.Duration) int64 {
	t.Helper()
	now := time.Now()
	var size int64
	for key, age := range ages {
		at := now.Add(-age)
		if err := os.Chtimes(c.path(key), at, at); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(c.path(key))
		if err != nil {
			t.Fatal(err)
		}
		size = info.Size()
	}
	return size
}

// putPoints stores Point{X: i+1} under keys[i].
func putPoints(t *testing.T, c *Cache, keys ...string) {
	t.Helper()
	for i, k := range keys {
		if err := c.Put(k, Point{X: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheGCLRUOrder pins the eviction policy: with a budget that fits
// only one entry, the two least-recently-used entries (oldest mtime)
// go and the most recent survives.
func TestCacheGCLRUOrder(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putPoints(t, c, "k-old", "k-mid", "k-new")
	entrySize := ageEntries(t, c, map[string]time.Duration{
		"k-old": 3 * time.Hour,
		"k-mid": 2 * time.Hour,
		"k-new": 1 * time.Hour,
	})

	st, err := c.GC(entrySize) // budget: exactly one entry
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 3 || st.Evicted != 2 {
		t.Fatalf("GC evicted %d of %d, want 2 of 3\n%s", st.Evicted, st.Entries, st.Summary())
	}
	if entries, bytes := st.Remaining(); entries != 1 || bytes != entrySize {
		t.Fatalf("Remaining() = %d entries, %d bytes; want 1, %d", entries, bytes, entrySize)
	}
	if _, ok := c.Get("k-old"); ok {
		t.Fatal("least-recently-used entry survived")
	}
	if _, ok := c.Get("k-mid"); ok {
		t.Fatal("second-least-recently-used entry survived")
	}
	if p, ok := c.Get("k-new"); !ok || p.X != 3 {
		t.Fatalf("most-recent entry evicted (got %+v, %v)", p, ok)
	}
}

// TestCacheGCMtimeFallback pins the migration from the retired access
// index: a leftover access.idx claiming the opposite order is not read,
// and entries evict by file mtime, oldest first.
func TestCacheGCMtimeFallback(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putPoints(t, c, "a", "b")
	hash := strings.TrimSuffix(filepath.Base(c.path("a")), ".json")
	stale := fmt.Sprintf("%s %d\n", hash, time.Now().Add(time.Hour).UnixNano())
	if err := os.WriteFile(filepath.Join(c.Dir(), "access.idx"), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	size := ageEntries(t, c, map[string]time.Duration{"a": 2 * time.Hour, "b": time.Hour})
	st, err := c.GC(size)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 1 {
		t.Fatalf("evicted %d, want 1", st.Evicted)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("older entry survived mtime-ordered GC")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("newer entry evicted")
	}
}

// TestCacheGetRefreshesMtime pins where recency comes from: a Get hit
// through a second Cache on the same directory (another process) moves
// the entry's mtime forward, so GC keeps it over entries written later;
// a repeat hit inside touchInterval leaves the mtime alone.
func TestCacheGetRefreshesMtime(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	putPoints(t, c, "k-old", "k-mid", "k-new")
	entrySize := ageEntries(t, c, map[string]time.Duration{
		"k-old": 3 * time.Hour,
		"k-mid": 2 * time.Hour,
		"k-new": 1 * time.Hour,
	})

	other, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := time.Now().Add(-time.Minute)
	if _, ok := other.Get("k-old"); !ok {
		t.Fatal("k-old missed")
	}
	info, err := os.Stat(c.path("k-old"))
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(before) {
		t.Fatalf("Get hit left k-old's mtime at %v", info.ModTime())
	}

	// Rate limit: a second hit from the same Cache does not touch again.
	ageEntries(t, c, map[string]time.Duration{"k-mid": 2 * time.Hour})
	other.Get("k-mid")
	ageEntries(t, c, map[string]time.Duration{"k-mid": 2 * time.Hour})
	other.Get("k-mid")
	if info, err = os.Stat(c.path("k-mid")); err != nil {
		t.Fatal(err)
	}
	if info.ModTime().After(before) {
		t.Fatalf("repeat hit inside touchInterval moved k-mid's mtime to %v", info.ModTime())
	}

	if _, err := c.GC(entrySize); err != nil {
		t.Fatal(err)
	}
	if p, ok := c.Get("k-old"); !ok || p.X != 1 {
		t.Fatalf("recently read entry evicted (got %+v, %v)", p, ok)
	}
	for _, k := range []string{"k-mid", "k-new"} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("%s survived over the recently read entry", k)
		}
	}
}

// TestCacheGCBudgets pins the edge budgets: negative is an error, zero
// evicts everything, and a generous budget evicts nothing.
func TestCacheGCBudgets(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GC(-1); err == nil {
		t.Fatal("negative budget accepted")
	}
	if err := c.Put("k", Point{X: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := c.GC(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 0 {
		t.Fatalf("generous budget evicted %d entries", st.Evicted)
	}
	st, err = c.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 1 {
		t.Fatalf("zero budget evicted %d, want 1", st.Evicted)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry survived zero-budget GC")
	}
}
