package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// FuzzJobIdentity drives the serve query surface: a raw /v1/kind query
// goes through jobFromQuery and Normalize, which must never panic, and
// normalizing an accepted job again must keep its identity. The ETag
// and the server's memory of finished jobs both key on that identity,
// so a normalization that moved it would split one job in two. The
// server's identity memo must derive what a fresh derivation does, on
// its first call and on the repeat it answers from memory, and must
// store nothing for an input that fails. Seed corpus:
// testdata/fuzz/FuzzJobIdentity.
func FuzzJobIdentity(f *testing.F) {
	f.Add("fig3", "topo=small&bins=1,4&warmup=300&measure=1500")
	f.Add("fig6", "grid=policy%3Dlrsc,colibri&format=csv")
	f.Add("comblock", "topo=small&params=kernel%3Damoadd")
	f.Fuzz(func(t *testing.T, kind, rawQuery string) {
		r := &http.Request{URL: &url.URL{RawQuery: rawQuery}}
		r.SetPathValue("name", kind)
		srv := NewServer(nil, WithRegistry(obs.NewRegistry()))
		job, format, err := jobFromQuery(r)
		var norm sweep.Job
		if err == nil {
			norm, err = job.Normalize()
		}
		if err != nil {
			for call := 1; call <= 2; call++ {
				if _, derr := srv.derive(r); derr == nil {
					t.Fatalf("call %d: the memo derived a job that fails fresh: %v", call, err)
				}
				if n := memoLen(srv); n != 0 {
					t.Fatalf("call %d: a failed input left %d derived jobs in the memo", call, n)
				}
			}
			return
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized job %+v fails to normalize again: %v", norm, err)
		}
		spec, _ := json.Marshal(norm)
		specAgain, _ := json.Marshal(again)
		id := jobIdentity(norm)
		if idAgain := jobIdentity(again); id != idAgain || string(spec) != string(specAgain) {
			t.Fatalf("normalizing again moved the identity:\n%s (%s)\n%s (%s)", spec, id, specAgain, idAgain)
		}
		var first *derivedJob
		for call := 1; call <= 2; call++ {
			d, err := srv.derive(r)
			if err != nil {
				t.Fatalf("call %d: the memo refuses a job that derives fresh: %v", call, err)
			}
			if first == nil {
				first = d
			} else if d != first {
				t.Fatalf("call %d derived the job again instead of reading the memo", call)
			}
			memoSpec, _ := json.Marshal(d.norm)
			if string(memoSpec) != string(spec) || d.format != format || d.id != id {
				t.Fatalf("call %d: the memo derived %s as %s (%s), fresh %s as %s (%s)",
					call, memoSpec, d.format, d.id, spec, format, id)
			}
			if id != "" && d.etag != `"`+id[:32]+"-"+format+`"` {
				t.Fatalf("call %d: ETag %s for identity %s and format %s", call, d.etag, id, format)
			}
		}
	})
}

// FuzzWorkProtocol drives the worker protocol's two POST handlers with
// fuzzed bodies. A server's dispatcher holds one submitted job whose
// first tasks sit in one live lease. The lease body is POSTed with an
// already-cancelled context, so a poll that finds no work returns at
// once; the complete body is POSTed with the placeholder LEASE replaced
// by the live lease's ID. The handlers must answer only 200, 204 or
// 400, and 400 for any body that is not exactly one JSON value (a
// second value or trailing junk included); a granted lease must name only submitted tasks, with their keys,
// and at most maxLeasePoints of them; and the job's bookkeeping must
// stay exact: pending counts the tasks not yet done, done is closed
// exactly when pending reaches 0, and every task is queued, leased or
// done exactly once. Seed corpus: testdata/fuzz/FuzzWorkProtocol.
func FuzzWorkProtocol(f *testing.F) {
	f.Add([]byte(`{"worker":"w1","max":2,"waitMs":1}`), []byte(`{"leaseId":"LEASE","done":[0,1]}`))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"leaseId":"LEASE","done":[0]}`))
	f.Add([]byte(`{"max":-3,"waitMs":-1}`), []byte(`{"leaseId":"LEASE"}`))
	f.Add([]byte(`{"max":1000,"waitMs":9223372036854775807}`), []byte(`{"leaseId":"LEASE","done":[0,1,1,7,-1]}`))
	f.Add([]byte(`{"worker":`), []byte(`{"leaseId":""}`))
	f.Add([]byte(`[]`), []byte(`{"leaseId":"nope","done":[2,3]}`))
	f.Add([]byte(`{"worker":"w1"}{"worker":"w2"} junk`), []byte(`{"leaseId":"LEASE","done":[0]} {"leaseId":"LEASE"}`))
	const submitted = 5
	f.Fuzz(func(t *testing.T, leaseBody, completeBody []byte) {
		srv := NewServer(nil, WithRegistry(obs.NewRegistry()))
		d := srv.disp
		keyOf := map[int]string{}
		var indices []int
		var keys []string
		for i := 0; i < submitted; i++ {
			indices = append(indices, i)
			keys = append(keys, fmt.Sprintf("key%d", i))
			keyOf[i] = keys[i]
		}
		dj := d.submit(sweep.Job{Kind: sweep.Fig6}, indices, keys)
		live := d.take(2)
		h := srv.Handler()
		post := func(path string, body []byte, ctx context.Context) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx))
			switch rec.Code {
			case http.StatusOK, http.StatusNoContent, http.StatusBadRequest:
			default:
				t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body)
			}
			if !json.Valid(body) && rec.Code != http.StatusBadRequest {
				t.Fatalf("%s answered %d to a body that is not one JSON value: %q", path, rec.Code, body)
			}
			return rec
		}

		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if rec := post("/v1/work/lease", leaseBody, cancelled); rec.Code == http.StatusOK {
			var l Lease
			if err := json.Unmarshal(rec.Body.Bytes(), &l); err != nil {
				t.Fatalf("lease answer does not decode: %v", err)
			}
			if len(l.Indices) != len(l.Keys) || len(l.Indices) == 0 || len(l.Indices) > maxLeasePoints {
				t.Fatalf("lease of %d indices and %d keys", len(l.Indices), len(l.Keys))
			}
			for i, idx := range l.Indices {
				if key, ok := keyOf[idx]; !ok || key != l.Keys[i] {
					t.Fatalf("lease names index %d with key %q, not a submitted task", idx, l.Keys[i])
				}
			}
		}
		post("/v1/work/complete", bytes.ReplaceAll(completeBody, []byte("LEASE"), []byte(live.ID)), context.Background())

		d.mu.Lock()
		defer d.mu.Unlock()
		if dj.pending != submitted-len(dj.doneIdx) || dj.pending < 0 {
			t.Fatalf("pending %d with %d of %d tasks done", dj.pending, len(dj.doneIdx), submitted)
		}
		select {
		case <-dj.done:
			if dj.pending != 0 {
				t.Fatalf("done closed with %d tasks pending", dj.pending)
			}
		default:
			if dj.pending == 0 {
				t.Fatal("every task done but done not closed")
			}
		}
		seen := make([]int, submitted)
		for _, tk := range d.queue {
			seen[tk.idx]++
		}
		for _, ls := range d.leases {
			for _, tk := range ls.tasks {
				seen[tk.idx]++
			}
		}
		for idx := range dj.doneIdx {
			if idx < 0 || idx >= submitted {
				t.Fatalf("index %d marked done, not a submitted task", idx)
			}
			seen[idx]++
		}
		for idx, n := range seen {
			if n != 1 {
				t.Fatalf("task %d is queued, leased or done %d times, want exactly once", idx, n)
			}
		}
	})
}
