package fleet_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// goldenFile pins the bytes of the fleet's reference runs across commits:
// one "<sha256 hex>  <name>" line per output, in sha256sum format. Unlike a
// rerun comparison, a digest recorded once catches a refactor that changes
// the output deterministically. The file is never rewritten by a test: on
// a mismatch the test prints the new line, and whoever changes the file
// says why in the same commit.
const goldenFile = "testdata/golden.sha256"

// checkDigest fails t unless data hashes to the digest recorded for name.
func checkDigest(t *testing.T, name string, data []byte) {
	t.Helper()
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	want, ok := recordedDigest(t, name)
	if !ok {
		t.Errorf("%s: no digest recorded in %s; the line would be:\n%s  %s", name, goldenFile, got, name)
		return
	}
	if got != want {
		t.Errorf("%s: output digest changed; new line:\n%s  %s", name, got, name)
	}
}

// recordedDigest looks name up in goldenFile.
func recordedDigest(t *testing.T, name string) (string, bool) {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, n, ok := strings.Cut(sc.Text(), "  ")
		if ok && n == name {
			return sum, true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return "", false
}
