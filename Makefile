GO ?= go

.PHONY: check ci fmt vet build test race e2e examples soak reconfig trace replay multiproc fleetobs

## check: everything a PR must pass — formatting, vet, build, race tests,
## the benchmark's smoke test, and the example programs (the only check
## that parses the XML configs they embed).
check: fmt vet build race e2e examples

## ci: the continuous-integration gate — vet, build, full race-detector
## run, the regression gates (every budget is a row of gates.json; run
## without -race so the measurements are honest), the benchmark's smoke
## test, the example programs, and the four drills (trace is the one
## whose off-node epoch crosses the loopback wire in-process).
ci:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run TestGates -count=1 ./...
	$(MAKE) e2e
	$(MAKE) examples
	$(MAKE) multiproc
	$(MAKE) soak
	$(MAKE) fleetobs
	$(MAKE) trace

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

## race: race-detector run over the packages on the M×N data path —
## including evpath, whose tcp transport carries core's cross-node pairs —
## and its one recorder (flight journal → monitor histograms → collector).
race:
	$(GO) test -race -count=1 ./internal/core/ ./internal/evpath/ ./internal/ndarray/ ./internal/shm/ \
		./internal/monitor/ ./internal/flight/ ./internal/obsplane/ ./internal/coupled/

## e2e: vet and smoke-test flexio-bench (benchmark/ is a module of its
## own, so the root `./...` never reaches it). It imports internal/...
## through a replace and pins names, optional interfaces and wire sizes
## there, which makes it the one check that notices when a change to
## internal/... breaks what BENCHMARK.json's command builds and runs.
e2e:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

## examples: runs every program under examples/; any non-zero exit fails.
examples:
	for p in $$($(GO) list ./examples/...); do $(GO) run $$p || exit 1; done

## reconfig: mid-run reconfiguration experiment over real core streams;
## prints writer drain and reader wall time per N -> N' delta.
reconfig:
	$(GO) run ./cmd/flexbench -exp reconfig

## trace: the one-record-stream drill — runs an instrumented stream
## through a mid-run reconfiguration that moves the readers off-node, from
## shm onto tcp over a loopback socket (live /metrics, /journal, /trace and
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
## 32 tenants x 16 epochs share one staging pool, one Net (cross-node
## reconfigurations ride its loopback tcp wire) and one sharded
## directory; a quota-limited hot tenant must
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
