package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// BenchmarkServeDecide measures one resident strong-RCDP decide on the
// orders example through Server.ServeHTTP, without a socket: decode,
// tenant gate, admission, decider, ledger fold and encode. Run it with
// -benchmem: B/op and allocs/op are the service's cost per decide, and
// resp_bytes is the size of the JSON answer.
func BenchmarkServeDecide(b *testing.B) {
	raw, err := os.ReadFile("../../examples/orders_rcdp.json")
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Workers: 1})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/v1/problems/orders", bytes.NewReader(raw)))
	if w.Code != http.StatusCreated {
		b.Fatalf("PUT status = %d: %s", w.Code, w.Body)
	}
	body := []byte(`{"property": "rcdp", "model": "strong"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w = httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/problems/orders/decide", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("decide status = %d: %s", w.Code, w.Body)
		}
	}
	b.ReportMetric(float64(w.Body.Len()), "resp_bytes")
}
