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

// The digests are the sha256 of every work-item cache key of a set of
// jobs, binary fingerprint stripped. Each changes only when a cache
// identity of its jobs changes: a refactor that must keep every cached
// point, ETag and golden valid has to leave both alone.
//
// defaultKeyDigest covers every built-in kind's default job at the two
// reference scales (defaultKeyJobs); gridKeyDigest covers the grid jobs
// (gridKeyJobs), whose keys also depend on which axes each policy
// reads.
const (
	defaultKeyDigest = "a66e6c759beba85d8b2de1a88078f7084e5206f3741cf247002e8b75a0c5b6a8"
	gridKeyDigest    = "20372db7d5ea27f90248bade8991ab3d8d265de061623e654a9631482669b45b"
)

// defaultKeyJobs is every built-in kind at the two reference scales.
func defaultKeyJobs() []sweep.Job {
	kinds := []sweep.Kind{sweep.Fig3, sweep.Fig4, sweep.Fig5, sweep.Fig6, sweep.Fig6MS,
		sweep.TableI, sweep.TableII, "barrier", "rcu", "comblock"}
	var jobs []sweep.Job
	for _, topo := range []string{"small", "mempool"} {
		for _, k := range kinds {
			jobs = append(jobs, sweep.Job{Kind: k, Topo: topo})
		}
	}
	return jobs
}

// gridKeyJobs are grid jobs that set all four policy axes, restate
// defaults (colibriq=4, backoff=128), turn the backoff off (backoff=0)
// and set an axis some of their policies ignore (colibriq under lrsc
// and lrscwait, queuecap under colibri).
func gridKeyJobs() []sweep.Job {
	return []sweep.Job{
		{Kind: sweep.Fig3, Topo: "small", Bins: []int{1}, Grid: sweep.Grid{
			Policies: []string{"colibri", "lrscwait"}, QueueCaps: []int{1},
			ColibriQueues: []int{2, 4}, Backoffs: []int{0, 128}}},
		{Kind: sweep.Fig6MS, Topo: "small", Grid: sweep.Grid{Backoffs: []int{0, 64}}},
		{Kind: "barrier", Topo: "small", Grid: sweep.Grid{
			Policies: []string{"lrsc"}, Backoffs: []int{0, 128}}},
	}
}

// keyDigest hashes every item key of jobs and returns the digest and
// the item count.
func keyDigest(t *testing.T, jobs []sweep.Job) (string, int) {
	t.Helper()
	fp := sweep.Fingerprint()
	h := sha256.New()
	items := 0
	for _, j := range jobs {
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
	return hex.EncodeToString(h.Sum(nil)), items
}

func TestCacheKeyDigest(t *testing.T) {
	if sweep.Fingerprint() == "" {
		t.Skip("binary has no fingerprint, so no item carries a key")
	}
	for _, c := range []struct {
		name string
		jobs []sweep.Job
		want string
	}{
		{"default", defaultKeyJobs(), defaultKeyDigest},
		{"grid", gridKeyJobs(), gridKeyDigest},
	} {
		if got, items := keyDigest(t, c.jobs); got != c.want {
			t.Errorf("%s cache-key digest over %d items = %s, want %s", c.name, items, got, c.want)
		}
	}
}
