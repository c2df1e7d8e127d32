package sweep

import (
	"fmt"
	"testing"
)

// benchEntries is how many entries the cache benchmarks cycle over: the
// order of one warm paper pass (196 points at mempool).
const benchEntries = 200

// benchKeys returns keys shaped like the built-in kinds' (about 110
// bytes) and the fig3-style point stored under each.
func benchKeys() ([]string, []Point) {
	keys := make([]string, benchEntries)
	points := make([]Point, benchEntries)
	for i := range keys {
		keys[i] = fmt.Sprintf("v4|6589d8cee41a6f49|fig3|ct4|bt16|tg2|g2|w3000|m10000|lrscwait-8|v2|p=lrscwait|q8|cq4|bo128|bins%d", i)
		points[i] = Point{X: i, Throughput: 0.1679 + float64(i)/1e4,
			MinPerCore: 0.004333333333333333, MaxPerCore: 0.00875}
	}
	return keys, points
}

// BenchmarkCacheGet is the warm read path: every Get is a hit on one
// of benchEntries entries, visited in turn as a warm pass does.
func BenchmarkCacheGet(b *testing.B) {
	c := newCache(b.TempDir())
	keys, points := benchKeys()
	for i, k := range keys {
		if err := c.Put(k, points[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%benchEntries]); !ok {
			b.Fatalf("Get(%q) missed", keys[i%benchEntries])
		}
	}
}

// BenchmarkCachePut is the cold write path: temp file, write, rename,
// over the same benchEntries keys.
func BenchmarkCachePut(b *testing.B) {
	c := newCache(b.TempDir())
	keys, points := benchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(keys[i%benchEntries], points[i%benchEntries]); err != nil {
			b.Fatal(err)
		}
	}
}
