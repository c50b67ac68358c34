package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/mmtag/mmtag/internal/channel"
	"github.com/mmtag/mmtag/internal/dsp"
	"github.com/mmtag/mmtag/internal/frame"
	"github.com/mmtag/mmtag/internal/rng"
	"github.com/mmtag/mmtag/internal/units"
)

// captureGoldenPath holds one SHA-256 per operating point (sha256sum
// format: digest, two spaces, case name). The digests were taken before
// the capture recipe moved into OperatingPoint and are never re-pinned to
// make this test pass.
var captureGoldenPath = filepath.Join("testdata", "capture.sha256")

// goldenBurst is the decoded-burst call the golden pins next to each
// capture: Link.RunWaveformWS for OOK, the operating point's burst
// method for the other schemes.
func goldenBurst(l *Link, ws *dsp.Workspace, payload []byte, mcs frame.MCS, bw units.ReaderBandwidth, src *rng.Source) (WaveformResult, error) {
	if mcs == frame.MCSOOK {
		return l.RunWaveformWS(ws, payload, bw, src)
	}
	op, err := l.OperatingPoint(bw)
	if err != nil {
		return WaveformResult{}, err
	}
	return op.RunWS(ws, payload, mcs, src)
}

// captureGoldenDigests runs every golden case — {2, 4, 7} ft × the three
// paper bandwidths × {OOK, 4-ASK} × fading {off, K = 6 dB at 200 Hz} —
// and returns "digest  name" lines in case order. Each case draws three
// bursts from one source; each burst hashes its capture's samples,
// sample rate and received power, then the decoded burst's outcome
// (Decoded, BitErrors, TagID, MeasuredSNRdB), all as raw bits.
func captureGoldenDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	word := make([]byte, 8)
	for _, ft := range []float64{2, 4, 7} {
		for bi := range units.PaperBandwidths() {
			for _, mcs := range []frame.MCS{frame.MCSOOK, frame.MCSASK4} {
				for _, fading := range []*channel.Fading{nil, {KdB: 6, DopplerHz: 200}} {
					l, err := NewDefaultLink(units.FeetToMeters(ft))
					if err != nil {
						t.Fatal(err)
					}
					l.Fading = fading
					bw := l.Reader.Bandwidths[bi]
					name := fmt.Sprintf("%gft/%s/%s/fading-off", ft, bw.Label, mcs)
					if fading != nil {
						name = fmt.Sprintf("%gft/%s/%s/fading-k6-200hz", ft, bw.Label, mcs)
					}
					h := sha256.New()
					put := func(v uint64) {
						binary.LittleEndian.PutUint64(word, v)
						h.Write(word)
					}
					src := rng.New(uint64(1000*ft) + uint64(10*bi) + uint64(mcs))
					ws := dsp.NewWorkspace()
					for range 3 {
						payload := src.Bytes(make([]byte, 32))
						ws.Reset()
						cap, err := l.CaptureWaveformWS(ws, payload, mcs, bw, src)
						if err != nil {
							t.Fatalf("%s: capture: %v", name, err)
						}
						put(uint64(len(cap.Samples)))
						for _, v := range cap.Samples {
							put(math.Float64bits(real(v)))
							put(math.Float64bits(imag(v)))
						}
						put(math.Float64bits(cap.SampleRateHz))
						put(math.Float64bits(cap.Budget.ReceivedDBm))
						res, err := goldenBurst(l, ws, payload, mcs, bw, src)
						if err != nil {
							t.Fatalf("%s: burst: %v", name, err)
						}
						decoded := uint64(0)
						if res.Decoded {
							decoded = 1
						}
						put(decoded)
						put(uint64(res.BitErrors))
						put(uint64(res.TagID))
						put(math.Float64bits(res.MeasuredSNRdB))
					}
					lines = append(lines, hex.EncodeToString(h.Sum(nil))+"  "+name)
				}
			}
		}
	}
	return lines
}

// TestCaptureGolden pins the bits of every synthesized capture and the
// outcome of every decoded burst across range, bandwidth, scheme and
// fading. Floating-point output is only pinned on amd64: other
// architectures may fuse multiply-adds and move the last bit.
func TestCaptureGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	f, err := os.Open(captureGoldenPath)
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
	got := captureGoldenDigests(t)
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
