GO ?= go
GIT_SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)

.PHONY: build test race vet lint lint-fixtures bench fuzz-smoke examples figures loc reach deps check clean

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
# result caching all come from `go vet`. See DESIGN.md §10, "Static
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

# The paper's figures at seeds 1, 2 and 3 are a checked output. The run
# is deterministic (the same bytes on every run and under GOMAXPROCS=1),
# so a difference from a golden is a figure that moved. A change that
# moves one on purpose re-records the goldens and says so:
#   for s in 1 2 3; do go run ./cmd/figures -seed $s > cmd/figures/testdata/seed$s.golden; done
figures:
	$(GO) build -o bin/figures ./cmd/figures
	for s in 1 2 3; do bin/figures -seed $$s | diff -u cmd/figures/testdata/seed$$s.golden - || exit 1; done

# Non-test Go lines per package and their total: raw lines (comments and
# blank lines count) of the files `go list` names as GoFiles, so tests,
# testdata and the bench/ module (a module of its own) are left out.
# Then the size in bytes of the three documents that describe the code.
# The one way this repository counts its size.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	awk '{ n = 0; for (i = 2; i <= NF; i++) { while ((getline line < $$i) > 0) n++; close($$i) } \
	printf "%6d %s\n", n, $$1; total += n } END { printf "%6d total\n", total }'
	@for f in README.md DESIGN.md EXPERIMENTS.md; do printf '%6d bytes %s\n' $$(wc -c < $$f) $$f; done

# How much of the code the figures and an operator reach, in two halves.
# The simulation half: cmd/figures (seed 1) and the three examples that
# drive the simulation in-process, built with coverage and run into one
# counter directory, then statement coverage per simulation package. The
# daemon half (scripts/reach-daemon.sh): a coverage-built qindbd on
# loopback, driven by every qindbctl command, the RESP commands and every
# operator route, then stopped with SIGTERM, and statement coverage per
# daemon package. The coverage is a record, not a gate: code at 0 % here
# is code no figure, example or operator path runs. The daemon half fails
# on a counter or histogram of /metrics that never moved. -coverpkg names the module path;
# with ./internal/... the binaries wrote no counter files.
REACH_EXAMPLES := indexpipeline quickstart regionalupdate
reach:
	@rm -rf bin/reach && mkdir -p bin/reach/cov
	@echo "simulation: cmd/figures -seed 1 and examples $(REACH_EXAMPLES)"
	@$(GO) build -cover -coverpkg=directload/... -o bin/reach/figures ./cmd/figures
	@for e in $(REACH_EXAMPLES); do $(GO) build -cover -coverpkg=directload/... -o bin/reach/$$e ./examples/$$e || exit 1; done
	@GOCOVERDIR=bin/reach/cov bin/reach/figures -seed 1 >/dev/null
	@for e in $(REACH_EXAMPLES); do GOCOVERDIR=bin/reach/cov bin/reach/$$e >/dev/null || exit 1; done
	@$(GO) tool covdata percent -i bin/reach/cov \
		-pkg directload/internal/lsm,directload/internal/mint,directload/internal/skiplist,directload/internal/netsim,directload/internal/bifrost,directload/internal/cluster,directload/internal/experiments,directload/internal/indexer
	@echo "daemon: qindbd driven by qindbctl, RESP and the operator routes, stopped with SIGTERM"
	@GO=$(GO) bash scripts/reach-daemon.sh

# The daemon and its client link the engine and the wire stack only:
# the simulation behind the figures (and the LevelDB baseline under it)
# must not reach either binary. grep exits 0 on a match, failing here.
deps:
	@if $(GO) list -deps ./cmd/qindbd ./cmd/qindbctl | \
		grep -E '^directload/internal/(lsm|mint|skiplist|netsim|bifrost|cluster|experiments|indexer)$$'; then \
		echo "qindbd/qindbctl link the simulation packages above"; exit 1; fi

# Full pre-merge gate: compile, standard vet, the repo's own analyzer
# suite, the daemons' dependency guard, unit tests, the examples, the
# figures against their goldens (seeds 1-3), then the race detector over
# every package.
# bench/ is a module of its own, which `./...` does not
# reach: its tests compile the end-to-end benchmark and smoke-run every
# workload — hand-built hello included — against a qindbd built from
# this tree, so a wire change that breaks the benchmark fails here.
check: build vet lint deps test examples figures
	$(GO) test -race ./...
	cd bench && $(GO) test -count=1 .

clean:
	$(GO) clean ./...
	rm -rf bin
