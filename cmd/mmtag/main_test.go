package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
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

// TestExperimentOutputGolden pins every experiment's stdout at -seed 7
// with default flags to the SHA-256 digests in testdata/seed7.sha256.
// The digests were taken before the experiment table moved into the
// grid driver registry, so they hold the command to its old bytes.
// Floating-point output is only pinned on amd64: other architectures
// may fuse multiply-adds and move the last digit.
func TestExperimentOutputGolden(t *testing.T) {
	t.Parallel()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	names, digests := readGolden(t, "seed7.sha256")
	if !reflect.DeepEqual(names, allExperiments) {
		t.Fatalf("golden names %v, want allExperiments %v", names, allExperiments)
	}
	for _, name := range names {
		out, errOut, code := mmtag(t, name, "-seed", "7")
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, errOut)
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != digests[name] {
			t.Errorf("%s -seed 7: stdout sha256 %s, golden %s", name, got, digests[name])
		}
	}
}

// TestAllExperimentsMatchRegistry: the "all" order and the grid driver
// registry name the same 20 experiments.
func TestAllExperimentsMatchRegistry(t *testing.T) {
	all := append([]string(nil), allExperiments...)
	sort.Strings(all)
	if drivers := grid.Drivers(); !reflect.DeepEqual(all, drivers) {
		t.Fatalf("allExperiments %v, grid drivers %v", all, drivers)
	}
	if len(all) != 20 {
		t.Fatalf("%d experiments, want 20", len(all))
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
	if _, errOut, code := mmtag(t, "warpdrive"); code != 1 ||
		!strings.Contains(errOut, `unknown experiment "warpdrive"`) {
		t.Fatalf("unknown experiment: exit %d, stderr %q", code, errOut)
	}
}
