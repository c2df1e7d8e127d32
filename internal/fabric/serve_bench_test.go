package fabric

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

// BenchmarkServeHit times one request for a remembered job through the
// server's handler, without a network: the small topology's default
// fig3 job, computed once before the timer starts, then asked for in
// each format and revalidated against its JSON ETag (a 304). Record its
// medians and allocs/op in BENCH_serve.json.
func BenchmarkServeHit(b *testing.B) {
	srv := NewServer(nil, WithRegistry(obs.NewRegistry()), WithWorkers(2))
	h := srv.Handler()
	serve := func(format, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/v1/kind/fig3?topo=small&format="+format, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	etags := map[string]string{}
	for _, format := range []string{"json", "csv", "table"} {
		rec := serve(format, "")
		if rec.Code != http.StatusOK || rec.Header().Get("ETag") == "" {
			b.Fatalf("%s: %d, ETag %q\n%s", format, rec.Code, rec.Header().Get("ETag"), rec.Body)
		}
		etags[format] = rec.Header().Get("ETag")
	}
	for _, bc := range []struct {
		name, format, inm string
		code              int
	}{
		{"json", "json", "", http.StatusOK},
		{"csv", "csv", "", http.StatusOK},
		{"table", "table", "", http.StatusOK},
		{"revalidate", "json", etags["json"], http.StatusNotModified},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec := serve(bc.format, bc.inm); rec.Code != bc.code {
					b.Fatalf("%d, want %d", rec.Code, bc.code)
				}
			}
		})
	}
}
