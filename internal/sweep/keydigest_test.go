package sweep_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	_ "repro/internal/patterns" // registers barrier, rcu and comblock
	"repro/internal/sweep"
)

// keyDigest is the sha256 of every work-item cache key of the jobs in
// keyDigestJobs, binary fingerprint stripped. It changes only when a
// cache identity changes: a refactor that must keep every cached point,
// ETag and golden valid has to leave it alone.
const keyDigest = "94f79dda217b3c7c0bf405f0ae759075b8ea1fb28b95b751887cfa406b20752c"

// keyDigestJobs is every built-in kind at the two reference scales plus
// grid jobs that set all four policy axes, restate defaults (colibriq=4,
// backoff=128) and turn the backoff off (backoff=0).
func keyDigestJobs() []sweep.Job {
	kinds := []sweep.Kind{sweep.Fig3, sweep.Fig4, sweep.Fig5, sweep.Fig6, sweep.Fig6MS,
		sweep.TableI, sweep.TableII, "barrier", "rcu", "comblock"}
	var jobs []sweep.Job
	for _, topo := range []string{"small", "mempool"} {
		for _, k := range kinds {
			jobs = append(jobs, sweep.Job{Kind: k, Topo: topo})
		}
	}
	return append(jobs,
		sweep.Job{Kind: sweep.Fig3, Topo: "small", Bins: []int{1}, Grid: sweep.Grid{
			Policies: []string{"colibri", "lrscwait"}, QueueCaps: []int{1},
			ColibriQueues: []int{2, 4}, Backoffs: []int{0, 128}}},
		sweep.Job{Kind: sweep.Fig6MS, Topo: "small", Grid: sweep.Grid{Backoffs: []int{0, 64}}},
		sweep.Job{Kind: "barrier", Topo: "small", Grid: sweep.Grid{
			Policies: []string{"lrsc"}, Backoffs: []int{0, 128}}},
	)
}

func TestCacheKeyDigest(t *testing.T) {
	fp := sweep.Fingerprint()
	if fp == "" {
		t.Skip("binary has no fingerprint, so no item carries a key")
	}
	h := sha256.New()
	items := 0
	for _, j := range keyDigestJobs() {
		e, err := sweep.ExpandJob(j)
		if err != nil {
			t.Fatalf("%s/%s: %v", j.Kind, j.Topo, err)
		}
		fmt.Fprintf(h, "%s %s\n", j.Kind, j.Topo)
		for _, it := range e.Items {
			if it.Sim && !strings.Contains(it.Key, "|"+fp+"|") {
				t.Fatalf("%s/%s: simulated item without a fingerprinted key: %q", j.Kind, j.Topo, it.Key)
			}
			fmt.Fprintf(h, "%d %d %s\n", it.Series, it.Point, strings.Replace(it.Key, "|"+fp+"|", "||", 1))
			items++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != keyDigest {
		t.Errorf("cache-key digest over %d items = %s, want %s", items, got, keyDigest)
	}
}
