package simtime

import (
	"bytes"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFillMatchesRandRead pins Fill to Rand().Read on a fresh source of the
// same seed: the same bytes and the same draws, over random lengths
// interleaved with Int63, Intn and Float64 draws.
func TestFillMatchesRandRead(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		k := NewKernel(seed)
		ref := rand.New(rand.NewSource(seed))
		ops := rand.New(rand.NewSource(seed + 100))
		for step := 0; step < 2000; step++ {
			switch op := ops.Intn(4); op {
			case 0:
				n := ops.Intn(3001)
				got, want := make([]byte, n), make([]byte, n)
				k.Fill(got)
				ref.Read(want)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: Fill(%d bytes) differs from Rand.Read", seed, step, n)
				}
			case 1:
				if got, want := k.Rand().Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d step %d: Int63 = %d, want %d", seed, step, got, want)
				}
			case 2:
				if got, want := k.Rand().Intn(1000), ref.Intn(1000); got != want {
					t.Fatalf("seed %d step %d: Intn = %d, want %d", seed, step, got, want)
				}
			case 3:
				if got, want := k.Rand().Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d step %d: Float64 = %v, want %v", seed, step, got, want)
				}
			}
		}
	}
}

// TestNoRandReadOutsideTests keeps every production byte stream on Fill.
// Rand().Read keeps its own leftover-byte position, so a caller of it would
// hand out bytes from a position Fill does not share.
func TestNoRandReadOutsideTests(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.Contains(src, []byte(".Rand().Read(")) {
			t.Errorf("%s draws a byte stream with Rand().Read; use Kernel.Fill", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
