package mac

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/obs"
	"github.com/mmtag/mmtag/internal/obs/event"
	"github.com/mmtag/mmtag/internal/obs/tsdb"
	"github.com/mmtag/mmtag/internal/rng"
)

// arqGoldenPath holds one SHA-256 per ARQ case (sha256sum format:
// digest, two spaces, case name). The digests were taken while a
// discrete-event engine paced RunARQWS and are never re-pinned to make
// this test pass.
var arqGoldenPath = filepath.Join("testdata", "arq.sha256")

// hashRun writes a run's telemetry into h: every result field of res (a
// struct of ints and float64s; floats as math.Float64bits), the event
// lines of category cat, and every sampled series outside the sim_*
// families, which described the pacing engine rather than the exchange.
func hashRun(h hash.Hash, res any, log *event.Log, cat string, smp *tsdb.Sampler) {
	word := make([]byte, 8)
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word, v)
		h.Write(word)
	}
	rv := reflect.ValueOf(res)
	for i := 0; i < rv.NumField(); i++ {
		switch f := rv.Field(i); f.Kind() {
		case reflect.Int:
			put(uint64(f.Int()))
		case reflect.Float64:
			put(math.Float64bits(f.Float()))
		default:
			panic(fmt.Sprintf("hashRun: field %s has kind %s", rv.Type().Field(i).Name, f.Kind()))
		}
	}
	catField := `"cat":"` + cat + `"`
	for _, line := range log.Lines() {
		if strings.Contains(string(line), catField) {
			h.Write(append(line, '\n'))
		}
	}
	sn := smp.Snapshot()
	put(math.Float64bits(sn.DT))
	put(sn.Stride)
	put(sn.MaxTick)
	for _, se := range sn.Series {
		if strings.HasPrefix(se.Name, "sim_") {
			continue
		}
		h.Write([]byte(se.Name + "\x00" + se.Kind.String() + "\x00"))
		for _, l := range se.Labels {
			h.Write([]byte(l.Key + "=" + l.Value + "\x00"))
		}
		for _, p := range se.Points {
			put(math.Float64bits(p.T))
			put(math.Float64bits(p.V))
			put(p.Count)
			for _, c := range p.Counts {
				put(c)
			}
		}
	}
}

// arqGoldenDigests runs every golden case — {3, 4.5, 5.5, 7} ft × {16,
// 64} B × MaxRetries {0, 3}, 20 frames at 2 GHz — with a private
// registry, 0.1 µs sampler and event log installed, and returns
// "digest  name" lines in case order.
func arqGoldenDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, ft := range []float64{3, 4.5, 5.5, 7} {
		for _, size := range []int{16, 64} {
			for _, retries := range []int{0, 3} {
				name := fmt.Sprintf("%gft/%dB/retries-%d", ft, size, retries)
				reg := obs.NewRegistry()
				smp, err := tsdb.Attach(reg, 1e-7)
				if err != nil {
					t.Fatal(err)
				}
				log := event.New(0)
				obs.EnableWith(reg)
				event.EnableWith(log)
				l := arqLink(t, ft)
				src := rng.New(uint64(10*ft) + uint64(size) + uint64(retries))
				res, err := RunARQWS(dsp.NewWorkspace(), l, l.Reader.Bandwidths[0], 20,
					ARQConfig{FrameBytes: size, MaxRetries: retries}, src)
				obs.Disable()
				event.Disable()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				h := sha256.New()
				hashRun(h, res, log, "mac.arq", smp)
				lines = append(lines, hex.EncodeToString(h.Sum(nil))+"  "+name)
			}
		}
	}
	return lines
}

// TestARQGolden pins every result field, deliver/retry/residual event
// and sampled series of RunARQWS across range, payload and retry
// budget. Floating-point output is only pinned on amd64: other
// architectures may fuse multiply-adds and move the last bit.
func TestARQGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	f, err := os.Open(arqGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := arqGoldenDigests(t)
	if len(got) != len(want) {
		t.Fatalf("%d golden cases, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			gotDigest, name, _ := strings.Cut(got[i], "  ")
			t.Errorf("%s: sha256 %s, golden line %q", name, gotDigest, want[i])
		}
	}
}
