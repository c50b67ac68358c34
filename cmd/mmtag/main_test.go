package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/grid"
)

// runMainEnv makes the test binary act as the mmtag command: tests run
// it in a child process so they see real stdout bytes and exit codes.
const runMainEnv = "MMTAG_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mmtag runs the command with args and returns its stdout, stderr and
// exit code.
func mmtag(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("mmtag %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// readGolden parses a testdata digest file (sha256sum format: digest,
// two spaces, name) in file order.
func readGolden(t *testing.T, file string) (names []string, digests map[string]string) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digests = map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		names = append(names, name)
		digests[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return names, digests
}

// TestExperimentOutputGolden pins the stdout of "mmtag all -seed 7"
// to testdata/seed7.sha256, one digest per experiment in catalogue
// order, at -workers 1 (the sequential reference stream) and at
// -workers 8, and the stdout of "mmtag all -seed 7 -csv" to
// testdata/csv7.sha256 (one worker count: the plain runs already hold
// worker invariance). The plain digests were taken before the
// experiment table moved into internal/grid, so they hold the command
// to its old bytes; the five tables with multibyte cells (beamwidth,
// compare, energy, impair, stream) were re-pinned when render.Plain
// began to pad by runes. The CSV digests were taken before every
// driver moved onto typed render columns. Floating-point output is
// only pinned on amd64: other architectures may fuse multiply-adds and
// move the last digit.
func TestExperimentOutputGolden(t *testing.T) {
	t.Parallel()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	for _, run := range []struct {
		name, golden string
		args         []string
	}{
		{"workers=1", "seed7.sha256", []string{"-workers", "1"}},
		{"workers=8", "seed7.sha256", []string{"-workers", "8"}},
		{"csv", "csv7.sha256", []string{"-csv", "-workers", "8"}},
	} {
		t.Run(run.name, func(t *testing.T) {
			t.Parallel()
			names, digests := readGolden(t, run.golden)
			if drivers := grid.Drivers(); !reflect.DeepEqual(names, drivers) {
				t.Fatalf("%s names %v, want the catalogue %v", run.golden, names, drivers)
			}
			args := append([]string{"all", "-seed", "7"}, run.args...)
			out, errOut, code := mmtag(t, args...)
			if code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, errOut)
			}
			// all prints a blank line after every experiment.
			chunks := strings.SplitAfter(out, "\n\n")
			if last := chunks[len(chunks)-1]; last != "" {
				t.Fatalf("output does not end in a blank line: %q", last)
			}
			chunks = chunks[:len(chunks)-1]
			if len(chunks) != len(names) {
				t.Fatalf("%d experiments in the output, want %d", len(chunks), len(names))
			}
			for i, name := range names {
				sum := sha256.Sum256([]byte(strings.TrimSuffix(chunks[i], "\n")))
				if got := hex.EncodeToString(sum[:]); got != digests[name] {
					t.Errorf("%s %v: stdout sha256 %s, golden %s", name, args[1:], got, digests[name])
				}
			}
		})
	}
}

// TestSVGOutputGolden pins the -svg chart of every chart-capable
// experiment at -seed 7 to testdata/svg7.sha256 (amd64 only, like the
// stdout golden). The charts are the same at every -workers count.
func TestSVGOutputGolden(t *testing.T) {
	t.Parallel()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	names, digests := readGolden(t, "svg7.sha256")
	for _, name := range names {
		out, errOut, code := mmtag(t, name, "-svg", "-seed", "7")
		if code != 0 {
			t.Fatalf("%s -svg: exit %d: %s", name, code, errOut)
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != digests[name] {
			t.Errorf("%s -svg -seed 7: stdout sha256 %s, golden %s", name, got, digests[name])
		}
	}
}

// emptyManifestFiles rewrites dir's manifest.json with an empty files
// map and writes garbage over dir/victim.
func emptyManifestFiles(t *testing.T, dir, victim string) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["files"] = map[string]any{}
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, victim), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyEmptiedManifest: a manifest whose files map was emptied
// vouches for nothing, so verify must fail on the tampered file it no
// longer lists, in a single run directory and in a grid cell.
func TestVerifyEmptiedManifest(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	run := filepath.Join(dir, "run")
	if _, errOut, code := mmtag(t, "fig6", "-rundir", run); code != 0 {
		t.Fatalf("fig6 -rundir: exit %d: %s", code, errOut)
	}
	emptyManifestFiles(t, run, "metrics.json")
	if _, errOut, code := mmtag(t, "verify", "-rundir", run); code != 1 || !strings.Contains(errOut, "does not list") {
		t.Errorf("verify on an emptied manifest: exit %d, stderr %q; want exit 1 naming an unlisted file", code, errOut)
	}

	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"schema": "mmtag-grid/1", "name": "one", "seed": 1, "cells": [{"driver": "beamwidth"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "grid")
	if _, errOut, code := mmtag(t, "grid", "-f", spec, "-out", out); code != 0 {
		t.Fatalf("grid: exit %d: %s", code, errOut)
	}
	cells, err := filepath.Glob(filepath.Join(out, "cells", "*"))
	if err != nil || len(cells) != 1 {
		t.Fatalf("grid cells %v, %v; want one", cells, err)
	}
	emptyManifestFiles(t, cells[0], "table.txt")
	if _, errOut, code := mmtag(t, "verify", "-rundir", out); code != 1 || !strings.Contains(errOut, "table.txt") {
		t.Errorf("verify on a grid cell's emptied manifest: exit %d, stderr %q; want exit 1 naming table.txt", code, errOut)
	}
}

// TestExitStatus pins the exit codes of the archival and error paths.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	run := filepath.Join(dir, "run")
	if _, errOut, code := mmtag(t, "fig6", "-rundir", run); code != 0 {
		t.Fatalf("fig6 -rundir: exit %d: %s", code, errOut)
	}
	if _, errOut, code := mmtag(t, "verify", "-rundir", run); code != 0 {
		t.Fatalf("verify on a fresh rundir: exit %d: %s", code, errOut)
	}
	metrics := filepath.Join(run, "metrics.json")
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(metrics, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := mmtag(t, "verify", "-rundir", run); code != 1 {
		t.Fatalf("verify on a tampered rundir: exit %d, want 1", code)
	}

	sampled := func(name string, args ...string) string {
		d := filepath.Join(dir, name)
		args = append([]string{"arq"}, args...)
		args = append(args, "-sample", "1e-6", "-rundir", d)
		if _, errOut, code := mmtag(t, args...); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errOut)
		}
		return d
	}
	a := sampled("a", "-seed", "3", "-points", "4")
	b := sampled("b", "-seed", "3", "-points", "4")
	c := sampled("c", "-seed", "9", "-points", "8")
	if out, errOut, code := mmtag(t, "diff", "-a", a, "-b", b); code != 0 {
		t.Fatalf("diff on identical runs: exit %d: %s%s", code, out, errOut)
	}
	out, _, code := mmtag(t, "diff", "-a", a, "-b", c)
	if code != 1 || !strings.Contains(out, "FAIL") {
		t.Fatalf("diff on differing runs: exit %d, want 1 with FAIL rows:\n%s", code, out)
	}

	if _, errOut, code := mmtag(t, "grid", "-out", filepath.Join(dir, "grid")); code != 1 ||
		!strings.Contains(errOut, "-f SPEC") {
		t.Fatalf("grid without -f: exit %d, stderr %q", code, errOut)
	}
	if _, errOut, code := mmtag(t, "beamwidth", "-svg"); code != 1 ||
		!strings.Contains(errOut, "has no SVG rendering (fig6, fig7, retro do)") {
		t.Fatalf("beamwidth -svg: exit %d, stderr %q", code, errOut)
	}
	_, errOut, code := mmtag(t)
	if code != 1 {
		t.Fatalf("no arguments: exit %d, want 1", code)
	}
	for _, name := range grid.Drivers() {
		i := strings.Index(errOut, "\n  "+name+" ")
		if i < 0 {
			t.Fatalf("usage does not list %q in catalogue order:\n%s", name, errOut)
		}
		errOut = errOut[i+1:]
	}
	if _, errOut, code := mmtag(t, "warpdrive"); code != 1 ||
		!strings.Contains(errOut, `unknown experiment "warpdrive"`) {
		t.Fatalf("unknown experiment: exit %d, stderr %q", code, errOut)
	}
}
