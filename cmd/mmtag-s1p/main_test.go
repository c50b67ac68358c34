package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestOutputGolden pins the bytes of both Touchstone files for an
// 11-point 23.5–24.5 GHz sweep to the SHA-256 digests in
// testdata/points11.sha256 (sha256sum format). Floating-point output is
// only pinned on amd64: other architectures may fuse multiply-adds and
// move the last digit.
func TestOutputGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	dir := t.TempDir()
	if err := run(dir, 11, 23.5e9, 24.5e9); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join("testdata", "points11.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	files := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, golden %s", name, got, want)
		}
		files++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if files != 2 {
		t.Fatalf("golden lists %d files, want 2", files)
	}
}

// TestRunErrors: a sweep run cannot make and a directory it cannot
// write to are errors, not partial output.
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name            string
		dir             string
		points          int
		startHz, stopHz float64
	}{
		{"one point", dir, 1, 23.5e9, 24.5e9},
		{"stop equals start", dir, 11, 24e9, 24e9},
		{"stop below start", dir, 11, 24.5e9, 23.5e9},
		{"missing directory", filepath.Join(dir, "missing"), 11, 23.5e9, 24.5e9},
	} {
		if err := run(tc.dir, tc.points, tc.startHz, tc.stopHz); err == nil {
			t.Errorf("%s: run returned nil error", tc.name)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("error paths wrote %d files (err %v), want none", len(entries), err)
	}
}
