package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// registryFile pins every registered experiment's output at seed 77 with
// Params{}: one "<sha256 hex>  <id>" line per experiment, in sha256sum
// format. It was recorded once and is never rewritten by a test; on a
// mismatch the test prints the new line.
const registryFile = "testdata/registry.sha256"

// resultDigest hashes everything an experiment reports: the rendered
// tables and plots, then every value by sorted key at full precision (the
// render rounds values to four decimals).
func resultDigest(r *Result) string {
	h := sha256.New()
	io.WriteString(h, r.Render())
	keys := make([]string, 0, len(r.Values))
	for k := range r.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		io.WriteString(h, k+"="+strconv.FormatFloat(r.Values[k], 'g', -1, 64)+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRegistryDigest runs every experiment once and checks its digest
// against registryFile (only fig12 under -short). The pinned digests were
// recorded while the serial reference engine and the parallel engine still
// both shipped and were proven to render identically, so they are also the
// serial oracle's output.
func TestRegistryDigest(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open(registryFile)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, id, ok := strings.Cut(sc.Text(), "  "); ok {
			want[id] = sum
		}
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, e := range Registry() {
		if testing.Short() && e.ID != "fig12" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			got := resultDigest(e.Run(77, Params{}))
			if got != want[e.ID] {
				t.Errorf("%s: output digest changed; new line:\n%s  %s", e.ID, got, e.ID)
			}
		})
	}
}
