GO ?= go

.PHONY: all build vet test race determinism sweep-check trace-check profile-smoke sensitivity-smoke spec-corpus-check spec-fuzz-smoke campaign-smoke campaign-corpus-check campaign-fuzz-smoke serve-smoke docs-check cover bench bench-smoke profile ci

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The whole suite under the race detector: the runner's worker pool is the
# only concurrent code in the repository, but everything it fans out must
# stay race-free too.
race:
	$(GO) test -race ./...

# The determinism regression from ISSUE 1: multi-seed sweeps must produce
# byte-identical output with workers=1 and workers=8, and sweep seed 1 must
# match the serial drivers. Run under -race so the worker pool itself is
# exercised, not just its output.
determinism:
	$(GO) test -race -run 'TestDeterminism' ./internal/runner ./internal/experiment . ./cmd/benchtables

# End-to-end sweep check: a multi-seed detection run completes and is
# worker-count invariant at the CLI level.
sweep-check:
	$(GO) run ./cmd/benchtables -detection -seeds 8 -workers 8 > /tmp/sweep8.txt
	$(GO) run ./cmd/benchtables -detection -seeds 8 -workers 1 > /tmp/sweep1.txt
	cmp /tmp/sweep1.txt /tmp/sweep8.txt
	@echo "sweep output is worker-count invariant"

# Trace-export smoke: stream a run's events to JSONL, then validate the
# file parses event by event.
trace-check:
	$(GO) run ./cmd/satin-sim -scans 1 -tp 1s -trace-out /tmp/trace.jsonl > /dev/null
	$(GO) run ./cmd/satin-sim -lint-trace /tmp/trace.jsonl

# Profiler smoke: run with the span profiler attached, emit every derived
# artifact (JSONL trace, Chrome/Perfetto trace, attribution table), lint
# both trace formats, and require a self-diff to report zero divergence.
profile-smoke:
	$(GO) run ./cmd/satin-sim -scans 1 -tp 1s \
		-trace-out /tmp/profile_smoke.jsonl \
		-chrome-trace /tmp/profile_smoke_chrome.json \
		-profile-out /tmp/profile_smoke_attribution.txt > /dev/null
	$(GO) run ./cmd/satin-sim -lint-trace /tmp/profile_smoke.jsonl
	$(GO) run ./cmd/satin-sim -lint-chrome /tmp/profile_smoke_chrome.json
	$(GO) run ./tools/tracediff /tmp/profile_smoke.jsonl /tmp/profile_smoke.jsonl
	@echo "profiler artifacts validate; self-diff has zero divergence"

# Fault-injection sensitivity smoke: a reduced sweep (3 magnitudes,
# 2 seeds, 4 full scans) must complete and still show detection degrading
# from 100% at magnitude 0 — the shape assertions live in
# internal/experiment's sensitivity tests; this exercises the CLI path.
sensitivity-smoke:
	$(GO) run ./cmd/benchtables -only=sensitivity -seeds 2 -quick

# Conformance corpus through the binary: every manifest row's spec must
# reproduce its committed golden byte for byte via satin-sim -spec, and
# every committed spec must already be canonical (-dump-spec is the
# identity on it). The same contract runs in-process in spec_corpus_test.go;
# this target is the CLI-level proof.
spec-corpus-check:
	$(GO) build -o /tmp/satin-sim ./cmd/satin-sim
	@set -e; while read -r spec kind golden; do \
		case "$$spec" in ''|'#'*) continue;; esac; \
		case "$$kind" in \
			jsonl) out=/tmp/spec_corpus_out.jsonl; /tmp/satin-sim -spec $$spec -trace-out $$out > /dev/null;; \
			csv) out=/tmp/spec_corpus_out.csv; /tmp/satin-sim -spec $$spec -trace-out $$out > /dev/null;; \
			timeline) out=/tmp/spec_corpus_out.txt; /tmp/satin-sim -spec $$spec -timeline $$out > /dev/null;; \
			*) echo "unknown export kind $$kind in corpus.manifest"; exit 1;; \
		esac; \
		cmp $$out $$golden || { echo "$$spec ($$kind) drifted from $$golden"; exit 1; }; \
		echo "$$spec ($$kind) == $$golden"; \
	done < testdata/specs/corpus.manifest
	@set -e; for spec in testdata/specs/*.json; do \
		/tmp/satin-sim -spec $$spec -dump-spec > /tmp/spec_canonical.json; \
		cmp /tmp/spec_canonical.json $$spec || { echo "$$spec is not canonical; regenerate with: satin-sim -spec $$spec -dump-spec"; exit 1; }; \
	done
	@echo "spec corpus reproduces every golden; all committed specs are canonical"

# Short fuzz run over the spec parser: any input that parses and validates
# must canonicalize and build a scenario without panicking. The committed
# corpus seeds the fuzzer.
spec-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzParseSpec$$' -fuzztime 20s ./internal/spec

# Campaign end-to-end smoke through the binary: the committed smoke grid
# (2 evaders × 2 round counts × 2 fault plans × 2 seeds = 16 cells) run
# uninterrupted at 1 worker must be byte-identical to the same campaign run
# at 8 workers, killed after 7 cells (-campaign-max-cells, the deterministic
# kill), and resumed at 3 workers. This is the acceptance gate for the
# result file's checkpointed resume: completion order never leaks into the
# finalized file.
campaign-smoke:
	$(GO) build -o /tmp/benchtables ./cmd/benchtables
	rm -f /tmp/campaign_serial.result /tmp/campaign_resumed.result
	/tmp/benchtables -campaign testdata/campaigns/smoke.json -campaign-out /tmp/campaign_serial.result -workers 1 > /dev/null
	/tmp/benchtables -campaign testdata/campaigns/smoke.json -campaign-out /tmp/campaign_resumed.result -workers 8 -campaign-max-cells 7 > /dev/null
	/tmp/benchtables -campaign testdata/campaigns/smoke.json -campaign-out /tmp/campaign_resumed.result -workers 3 > /dev/null
	cmp /tmp/campaign_serial.result /tmp/campaign_resumed.result
	@echo "campaign result is worker-count invariant and kill/resume lands on the same bytes"

# Campaign corpus through the binary: the committed smoke campaign must
# reproduce its committed result file byte for byte. The same contract runs
# in-process in campaign_corpus_test.go; this target is the CLI-level proof
# (the sibling of spec-corpus-check for the campaign layer).
campaign-corpus-check:
	$(GO) build -o /tmp/benchtables ./cmd/benchtables
	rm -f /tmp/campaign_corpus.result
	/tmp/benchtables -campaign testdata/campaigns/smoke.json -campaign-out /tmp/campaign_corpus.result -workers 4 > /dev/null
	cmp /tmp/campaign_corpus.result testdata/campaigns/smoke.result.golden || { echo "smoke campaign drifted from testdata/campaigns/smoke.result.golden"; exit 1; }
	@echo "campaign corpus reproduces its golden result file"

# Sharded-campaign smoke: a satin-serve coordinator plus two worker
# processes drain the committed smoke campaign over the lease protocol, and
# the merged result must be byte-identical to the committed single-process
# golden — the cross-process half of the campaign-corpus contract.
# Required /metrics families: the smoke run fails if the coordinator stops
# exposing any of these (eager registration means they exist even at zero).
SERVE_SMOKE_METRICS := \
	satin_leases_granted_total satin_leases_expired_total \
	satin_leases_renewed_total satin_lease_stale_rejections_total \
	satin_uploads_verified_total satin_uploads_rejected_total \
	satin_merges_total satin_http_requests_total \
	satin_http_request_duration_seconds satin_job_cells_total \
	satin_job_cells_done satin_job_cells_per_second \
	satin_cell_duration_seconds satin_cells_forked_total \
	satin_cells_reported_total

serve-smoke:
	$(GO) build -o /tmp/satin-serve ./cmd/satin-serve
	$(GO) build -o /tmp/satin-sim ./cmd/satin-sim
	rm -rf /tmp/satin_serve_smoke && mkdir -p /tmp/satin_serve_smoke
	@set -e; \
	/tmp/satin-serve -listen 127.0.0.1:8397 -data /tmp/satin_serve_smoke/data & \
	server=$$!; trap 'kill $$server 2>/dev/null' EXIT; \
	for i in $$(seq 50); do /tmp/satin-serve -url http://127.0.0.1:8397 -status >/dev/null 2>&1 && break; sleep 0.1; done; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -submit testdata/campaigns/smoke.json -shards 2; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -worker -name w1 -dir /tmp/satin_serve_smoke/w1 2>/dev/null & \
	w1=$$!; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -metrics > /tmp/satin_serve_smoke/metrics_live.txt; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -worker -name w2 -dir /tmp/satin_serve_smoke/w2 2>/dev/null; \
	wait $$w1; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -watch c1; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -metrics > /tmp/satin_serve_smoke/metrics.txt; \
	for m in $(SERVE_SMOKE_METRICS); do \
		grep -q "^\# TYPE $$m " /tmp/satin_serve_smoke/metrics.txt \
			|| { echo "serve-smoke: /metrics is missing family $$m"; exit 1; }; \
	done; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -timeline c1 -timeline-out /tmp/satin_serve_smoke/timeline.json; \
	/tmp/satin-sim -lint-chrome /tmp/satin_serve_smoke/timeline.json; \
	/tmp/satin-serve -url http://127.0.0.1:8397 -result c1 -out /tmp/satin_serve_smoke/merged.result; \
	cmp /tmp/satin_serve_smoke/merged.result testdata/campaigns/smoke.result.golden
	@echo "serve-smoke OK: golden bytes unchanged with live /metrics+/healthz scrapes; all required metric families present; timeline passes the Chrome lint"

# Short fuzz run over the campaign parser, seeded from the committed
# campaigns: any input that parses and validates must canonicalize, expand
# to cells, and round-trip without panicking.
campaign-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzParseCampaign$$' -fuzztime 20s ./internal/campaign

# Docs stay in sync with the code: every internal package opens with a
# '// Package <name>' doc comment (so `go doc` gives a real answer at each
# layer), appears in ARCHITECTURE.md's package map, and every CLI flag the
# markdown docs show next to a binary name actually exists in that binary.
docs-check:
	@fail=0; for d in internal/*/; do \
		grep -qs '^// Package' $$d*.go || { echo "missing '// Package' doc comment in $$d"; fail=1; }; \
	done; exit $$fail
	@echo "all internal packages documented"
	@fail=0; for d in internal/*/; do \
		p=$$(basename $$d); \
		grep -q "\`$$p\`" ARCHITECTURE.md || { echo "internal/$$p missing from ARCHITECTURE.md's package map"; fail=1; }; \
	done; exit $$fail
	@echo "every internal package is in ARCHITECTURE.md's package map"
	@rm -rf /tmp/satin_docscheck && mkdir -p /tmp/satin_docscheck
	@$(GO) build -o /tmp/satin_docscheck ./cmd/...
	@fail=0; for bin in satin-sim benchtables tzevader satin-serve; do \
		/tmp/satin_docscheck/$$bin -h 2>&1 | grep -oE '^  -[a-z0-9-]+' | tr -d ' ' > /tmp/satin_docscheck/$$bin.flags; \
		for f in $$(grep -ohE "$$bin"'[^#`]*' README.md EXPERIMENTS.md | grep -oE ' -[a-z][a-z0-9-]*' | sort -u); do \
			grep -qx -- "$$f" /tmp/satin_docscheck/$$bin.flags || { echo "docs show $$bin $$f but the binary has no such flag"; fail=1; }; \
		done; \
	done; exit $$fail
	@echo "every documented CLI flag exists in its binary"

# Coverage summary across all packages.
cover:
	$(GO) test -cover ./...

# Full benchmark suite with allocation counts.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Quick non-blocking benchmark smoke for CI: one short iteration of every
# benchmark, checking they still run — not their numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# CPU and heap profiles of the detection sweep benchmark, for digging into
# the simulator's hot path. Writes /tmp/satin_cpu.prof, /tmp/satin_mem.prof
# and the test binary /tmp/satin.test (pprof needs it to symbolize).
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkDetection$$' -benchtime 5x -count 1 \
		-cpuprofile /tmp/satin_cpu.prof -memprofile /tmp/satin_mem.prof -o /tmp/satin.test .
	@echo "inspect with: $(GO) tool pprof /tmp/satin.test /tmp/satin_cpu.prof"

ci: vet build test race determinism spec-corpus-check campaign-smoke campaign-corpus-check serve-smoke docs-check
