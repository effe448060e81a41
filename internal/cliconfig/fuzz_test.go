package cliconfig

import (
	"bytes"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to Load as the stdin of `-config -`. A bad
// config must come back as an error, never as a panic.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		Load("-", bytes.NewReader(data))
	})
}
