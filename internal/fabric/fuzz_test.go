package fabric

import (
	"encoding/json"
	"net/http"
	"net/url"
	"testing"
)

// FuzzJobIdentity drives the serve query surface: a raw /v1/kind query
// goes through jobFromQuery and Normalize, which must never panic, and
// normalizing an accepted job again must keep its identity. The ETag
// and the server's memory of finished jobs both key on that identity,
// so a normalization that moved it would split one job in two. Seed
// corpus: testdata/fuzz/FuzzJobIdentity.
func FuzzJobIdentity(f *testing.F) {
	f.Add("fig3", "topo=small&bins=1,4&warmup=300&measure=1500")
	f.Add("fig6", "grid=policy%3Dlrsc,colibri&format=csv")
	f.Add("comblock", "topo=small&params=kernel%3Damoadd")
	f.Fuzz(func(t *testing.T, kind, rawQuery string) {
		r := &http.Request{URL: &url.URL{RawQuery: rawQuery}}
		r.SetPathValue("name", kind)
		job, _, err := jobFromQuery(r)
		if err != nil {
			return
		}
		norm, err := job.Normalize()
		if err != nil {
			return
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized job %+v fails to normalize again: %v", norm, err)
		}
		spec, _ := json.Marshal(norm)
		specAgain, _ := json.Marshal(again)
		if id, idAgain := jobIdentity(norm), jobIdentity(again); id != idAgain || string(spec) != string(specAgain) {
			t.Fatalf("normalizing again moved the identity:\n%s (%s)\n%s (%s)", spec, id, specAgain, idAgain)
		}
	})
}
