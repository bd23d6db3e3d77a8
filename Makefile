GO ?= go
GIT_SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)

.PHONY: build test race vet lint lint-fixtures bench fuzz-smoke examples figures loc check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Repo-specific analyzers (internal/analysis) run through the go
# command's vettool protocol, so package loading, export data and
# result caching all come from `go vet`. See DESIGN.md, "Static
# analysis".
# Suppress a finding with:
#   //lint:ignore <analyzer> reason
lint:
	$(GO) build -o bin/directload-vet ./cmd/directload-vet
	$(GO) vet -vettool=bin/directload-vet ./...

# The analyzers' own regression suite: every analyzer package runs its
# flagging and non-flagging fixtures under the analysistest harness,
# plus the driver's own tests.
lint-fixtures:
	$(GO) test ./internal/analysis/... ./cmd/directload-vet/

# Working tools, not a gate (the gate is bench/run.sh, see
# BENCHMARK.json). For the parallel forms pass -cpu, e.g.
#   go test -run xxx -bench 'Parallel|HistogramObserve' -cpu 1,2,4 ./internal/core/ ./internal/metrics/
bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime 100x ./...

# Short fuzz pass over every decoder target: the native wire protocol,
# the AOF record, the RESP parser. The go tool accepts one -fuzz pattern
# per invocation, hence one line per target.
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzHelloFrame$$' -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz '^FuzzRequest$$' -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz '^FuzzFrameV2$$' -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/aof/
	$(GO) test -run xxx -fuzz '^FuzzRESPParse$$' -fuzztime 10s ./internal/resp/

# The examples are the only code that shows the packages in use from
# outside; each must run to completion (each takes under a second).
examples:
	for d in examples/*/; do $(GO) run ./$$d >/dev/null || exit 1; done

# The paper's figures at seed 1 are a checked output. The run is
# deterministic (the same bytes on every run and under GOMAXPROCS=1),
# so a difference from the golden is a figure that moved. A change that
# moves one on purpose re-records the golden and says so:
#   go run ./cmd/figures -seed 1 > cmd/figures/testdata/seed1.golden
figures:
	$(GO) run ./cmd/figures -seed 1 | diff -u cmd/figures/testdata/seed1.golden -

# Non-test Go lines per package and their total: raw lines (comments and
# blank lines count) of the files `go list` names as GoFiles, so tests,
# testdata and the bench/ module (a module of its own) are left out.
# The one way this repository counts its size.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	awk '{ n = 0; for (i = 2; i <= NF; i++) { while ((getline line < $$i) > 0) n++; close($$i) } \
	printf "%6d %s\n", n, $$1; total += n } END { printf "%6d total\n", total }'

# Full pre-merge gate: compile, standard vet, the repo's own analyzer
# suite, unit tests, the examples, the figures against their golden,
# then the race detector over every package.
# bench/ is a module of its own, which `./...` does not
# reach: its tests compile the end-to-end benchmark and smoke-run every
# workload — hand-built hello included — against a qindbd built from
# this tree, so a wire change that breaks the benchmark fails here.
check: build vet lint test examples figures
	$(GO) test -race ./...
	cd bench && $(GO) test -count=1 .

clean:
	$(GO) clean ./...
	rm -rf bin
