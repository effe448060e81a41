package qoemon

import (
	"testing"
	"time"
)

// FuzzParseSLO feeds arbitrary -slo strings to ParseSLO and evaluates every
// objective it accepts against a small store, as qoeserve does. A bad
// string must come back as a parse error, never as a panic further on.
func FuzzParseSLO(f *testing.F) {
	s := openStore(f, f.TempDir(), time.Minute)
	defer s.Close()
	ingestWindows(f, s, "c0", 0.01, 20, 0, 1, 2, 3)
	ingestWindows(f, s, "c1", 0.5, 20, 2, 3)
	f.Fuzz(func(t *testing.T, spec string) {
		slo, err := ParseSLO(spec)
		if err != nil {
			return
		}
		m, err := New(s, Config{SLOs: []SLO{slo}})
		if err != nil {
			t.Fatalf("ParseSLO accepted %q, New rejects it: %v", spec, err)
		}
		m.Evaluate()
	})
}
