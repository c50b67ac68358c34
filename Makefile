# mmtag build/test/reproduction targets. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build test race bench bench-json bench-gate vet fmt experiments figures clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Measure every micro-benchmark the BENCH_N.json history tracks (best of
# three each) into one mmtag-bench/9 file. BENCH_OUT defaults to a path
# outside the repository, so a bare `make bench-json` never overwrites
# the committed history.
BENCH_OUT ?= /tmp/mmtag_bench_fresh.json
bench-json:
	MMTAG_BENCH_JSON=$(BENCH_OUT) $(GO) test -run '^TestWriteBenchJSON$$' -v .

# Gate a fresh run against bench_gates.json and the BENCH_N.json history:
# prints the markdown report and fails on any ns/op, allocs/op, presence
# or ratio gate (tools/benchgate).
bench-gate: bench-json
	$(GO) run ./tools/benchgate -gates bench_gates.json $(BENCH_OUT)

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Every evaluation artifact of the paper, as text tables.
experiments:
	$(GO) run ./cmd/mmtag all

# The paper's two evaluation figures as SVG images.
figures:
	$(GO) run ./cmd/mmtag fig6 -svg > fig6.svg
	$(GO) run ./cmd/mmtag fig7 -svg > fig7.svg
	$(GO) run ./cmd/mmtag retro -svg > retro.svg

clean:
	rm -f fig6.svg fig7.svg retro.svg
