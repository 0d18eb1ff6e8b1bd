GO ?= go

.PHONY: check ci fmt vet build test race e2e bench soak reconfig trace replay multiproc fleetobs

## check: everything a PR must pass — formatting, vet, build, race tests,
## and the benchmark's smoke test.
check: fmt vet build race e2e

## ci: the continuous-integration gate — vet, build, full race-detector
## run, plus the benchmark regression gates (budgets in
## BENCH_monitor.json / BENCH_flight.json / BENCH_redist.json /
## BENCH_obsplane.json; all run without -race so the measurements are
## honest), the benchmark's smoke test, and the three drills.
ci:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run TestFlightNopOverheadBudget -count=1 ./internal/flight/
	$(GO) test -run TestRedistMappingBudget -count=1 .
	$(GO) test -run TestTCPStatsNopBudget -count=1 ./internal/evpath/
	$(GO) test -run TestDirectoryLookupBudget -count=1 ./internal/directory/
	$(GO) test -run TestObsplaneMergeBudget -count=1 ./internal/obsplane/
	$(MAKE) e2e
	$(MAKE) multiproc
	$(MAKE) soak
	$(MAKE) fleetobs

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: race-detector run over the packages on the M×N data path and
## its one recorder (flight journal → monitor histograms → collector).
race:
	$(GO) test -race -count=1 ./internal/core/ ./internal/ndarray/ ./internal/shm/ \
		./internal/monitor/ ./internal/flight/ ./internal/obsplane/ ./internal/coupled/

## e2e: vet and smoke-test flexio-bench (benchmark/ is a module of its
## own, so the root `./...` never reaches it). It imports internal/...
## through a replace and pins names, optional interfaces and wire sizes
## there, which makes it the one check that notices when a change to
## internal/... breaks what BENCHMARK.json's command builds and runs.
e2e:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

## bench: redistribution benchmarks with allocation counts, archived as
## newline-delimited JSON in BENCH_redist.json.
bench:
	$(GO) test -run XXX -bench 'PackUnpack|Redistribution|RedistPlanSteadyState' \
		-benchmem -benchtime=1s . | tee /tmp/bench_redist.txt
	awk 'BEGIN { print "[" ; first=1 } \
	     /^Benchmark/ { \
	       gsub(/"/, "\\\"", $$1); \
	       line = sprintf("  {\"name\": \"%s\", \"iterations\": %s", $$1, $$2); \
	       for (i = 3; i + 1 <= NF; i += 2) { \
	         v = $$i; u = $$(i+1); gsub(/\//, "_per_", u); gsub(/[^A-Za-z0-9_]/, "_", u); \
	         line = line sprintf(", \"%s\": %s", u, v); \
	       } \
	       line = line "}"; \
	       if (!first) printf(",\n"); printf("%s", line); first=0 \
	     } \
	     END { print "\n]" }' /tmp/bench_redist.txt > BENCH_redist.json
	@echo "wrote BENCH_redist.json"

## reconfig: mid-run reconfiguration experiment over real core streams;
## archives drain/wall costs per N -> N' delta in BENCH_reconfig.json.
reconfig:
	$(GO) run ./cmd/flexbench -exp reconfig

## trace: the one-record-stream drill — runs an instrumented stream
## through a mid-run reconfiguration (live /metrics, /journal, /trace and
## /critpath self-checked mid-run), the observation-steered coupled
## model, and the switched coupled scenario cut into per-step critical
## paths (edge sums must stay within 5% of each step's event envelope,
## Analyze's own invariant); writes trace.json (load in ui.perfetto.dev
## or about:tracing), metrics.json, journal.json and critpath.json.
trace:
	$(GO) run ./cmd/flexbench -exp trace -metrics 127.0.0.1:0

## multiproc: the real-deployment drill — re-execs flexbench into one
## directory server plus four flexnode daemons (writer leader + worker,
## reader leader + worker) coupled purely over TCP/TLS sockets, injects
## a mid-stream disconnect, reconfigures the readers mid-run, ships a DC
## plug-in across processes, and requires the output to be byte-identical
## to a single-process shared-memory run. The driver carries its own 90s
## deadline; the outer timeout is a belt-and-braces guard for `make ci`
## (falls back to running bare where coreutils' timeout is absent).
multiproc:
	timeout 150 $(GO) run ./cmd/flexbench -exp multiproc \
		|| { [ $$? -eq 127 ] && $(GO) run ./cmd/flexbench -exp multiproc; }

## soak: the multi-tenant stream-fabric drill under the race detector —
## 32 tenants x 16 epochs share one staging pool, one transport fabric
## and one sharded directory; a quota-limited hot tenant must
## backpressure against its own credit window without inflating any
## steady tenant's P99 step latency, and two tenants are grown/shrunk
## mid-run from observed signals. The outer timeout is a guard for
## `make ci` (falls back to running bare where coreutils' timeout is
## absent).
soak:
	timeout 150 $(GO) run -race ./cmd/flexbench -exp tenants \
		|| { [ $$? -eq 127 ] && $(GO) run -race ./cmd/flexbench -exp tenants; }

## fleetobs: the fleet observability drill under the race detector — a
## directory server plus four flexnode daemons stream two tenants over
## TCP while a collector discovers them through leased obs! entries,
## scrapes their /report and /journal endpoints, stitches cross-process
## step traces (stitched counts must equal the writers' flight journals
## exactly, zero event gaps), extracts a critical path that crosses the
## process boundary over send.tcp, and latches an SLO breach on the slow tenant
## that drives a fabric resize. The outer timeout is a guard for
## `make ci` (falls back to running bare where coreutils' timeout is
## absent).
fleetobs:
	timeout 150 $(GO) run -race ./cmd/flexbench -exp fleetobs \
		|| { [ $$? -eq 127 ] && $(GO) run -race ./cmd/flexbench -exp fleetobs; }

## replay: determinism check — re-runs the journaled scenario from the
## same configuration and diffs the event streams; exits non-zero on any
## divergence. `make replay PERTURB=-perturb` injects one and must fail.
replay:
	$(GO) run ./cmd/flexbench -exp replay $(PERTURB)
