package obs

import "testing"

// FuzzParseTraceparent feeds arbitrary header values to the W3C
// traceparent parser, which reads the header of every request. It must
// never panic, and whatever it accepts must survive a render and a
// re-parse unchanged: the same trace id, parent id and sampled flag.
// The seed corpus is in testdata/fuzz/FuzzParseTraceparent; run
//
//	go test ./internal/obs -run NONE -fuzz FuzzParseTraceparent -fuzztime 10s
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Fuzz(func(t *testing.T, h string) {
		tr, parent, sampled, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		out := FormatTraceparent(tr, parent, sampled)
		tr2, parent2, sampled2, err := ParseTraceparent(out)
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", h, out, err)
		}
		if tr2 != tr || parent2 != parent || sampled2 != sampled {
			t.Fatalf("%q → %q changed: trace %v→%v parent %v→%v sampled %v→%v",
				h, out, tr, tr2, parent, parent2, sampled, sampled2)
		}
	})
}
