# Convenience targets; `make ci` mirrors .github/workflows/ci.yml.

DUNE ?= dune
KERNEL = kernels/inverse_helmholtz.cfd

.PHONY: all build test bench lint profile memprof timeline ci clean

all: build

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest --force

bench:
	$(DUNE) exec bench/main.exe

# Static verification of every kernel in the tree (docs/ANALYSIS.md):
# dependence preservation, bounds, PLM sharing soundness. Warnings fail
# the lint too, so an unused input or a port-pressure regression is
# caught before it reaches a board. Then the cost differential: the
# static analyzer's predictions must match one recorded functional
# simulation on every kernel in both sharing modes (any cost-drift-*
# diagnostic exits non-zero); the JSON cost reports land in cost-out/
# and CI keeps them as artifacts.
lint: build
	@for k in kernels/*.cfd examples/*.cfd; do \
	  [ -e "$$k" ] || continue; \
	  echo "lint $$k"; \
	  $(DUNE) exec --no-build bin/cfdc.exe -- check "$$k" --fail-on-warning || exit 1; \
	done
	@mkdir -p cost-out
	@for k in kernels/*.cfd; do \
	  name=$$(basename "$$k" .cfd); \
	  for sharing in true false; do \
	    echo "cost --diff $$k --sharing $$sharing"; \
	    $(DUNE) exec --no-build bin/cfdc.exe -- cost "$$k" --diff \
	      --sharing $$sharing --sim-elements 3 \
	      --json "cost-out/$$name-sharing-$$sharing.json" > /dev/null || exit 1; \
	  done; \
	done
	@echo "lint: zero cost drift across kernels x sharing"

# Profile one end-to-end run of the flow (docs/OBSERVABILITY.md):
# compile + static check + system build + perf model + functional sim,
# writing a Perfetto-loadable Chrome trace and a metrics JSON, then
# validate both files parse as JSON.
profile: build
	$(DUNE) exec --no-build bin/cfdc.exe -- profile kernels/helmholtz.cfd \
	  --trace profile_trace.json --metrics profile_metrics.json --summary
	python3 -m json.tool profile_trace.json > /dev/null
	python3 -m json.tool profile_metrics.json > /dev/null
	@echo "profile_trace.json and profile_metrics.json are valid JSON"

# Dynamic memory audit of every kernel (docs/OBSERVABILITY.md): run each
# one through the instrumented engine in both memgen modes and check the
# observed live intervals against the static model. cfdc memprof exits
# non-zero on any memprof-* diagnostic, so a kernel whose dynamic
# behaviour escapes its licensed architecture fails the build. The JSON
# profiles and counter traces are kept as artifacts. Then the recorder
# overhead benchmark (disabled vs enabled on p=11 Inverse Helmholtz),
# which writes BENCH_memprof.json.
memprof: build
	@mkdir -p memprof-out
	@for k in kernels/*.cfd; do \
	  name=$$(basename "$$k" .cfd); \
	  echo "memprof $$k"; \
	  $(DUNE) exec --no-build bin/cfdc.exe -- memprof "$$k" --name "$$name" \
	    --sim-elements 2 \
	    --json "memprof-out/$$name.json" \
	    --trace "memprof-out/$$name.trace.json" || exit 1; \
	done
	@echo "memprof: all kernels audited clean"
	$(DUNE) exec --no-build bench/main.exe -- memprof --no-trace

# Device-cycle timeline of every kernel (docs/OBSERVABILITY.md): trace
# both the plain and double-buffered legs on the modeled cycle clock,
# reconcile phase durations against Sim.Perf's totals (cfdc timeline
# exits non-zero on any timeline-drift error), and keep
# the Chrome traces + derived-metric JSON as artifacts. Both outputs
# must parse as JSON.
timeline: build
	@mkdir -p timeline-out
	@for k in kernels/*.cfd; do \
	  name=$$(basename "$$k" .cfd); \
	  echo "timeline $$k"; \
	  $(DUNE) exec --no-build bin/cfdc.exe -- timeline "$$k" --name "$$name" \
	    --elements 512 --json \
	    --trace "timeline-out/$$name.trace.json" \
	    > "timeline-out/$$name.json" || exit 1; \
	  python3 -m json.tool "timeline-out/$$name.json" > /dev/null || exit 1; \
	  python3 -m json.tool "timeline-out/$$name.trace.json" > /dev/null || exit 1; \
	done
	@echo "timeline: all kernels reconciled (phase sums == hw model)"

# Build everything, run the full suite, then smoke-test the exploration
# engine at jobs=1 and jobs=4 (the sweep itself asserts the two agree in
# test/test_differential.ml; this exercises the CLI path end to end).
# Timing regressions are gated by perfbench (BENCHMARK.json), not here.
ci: build test lint profile memprof timeline
	$(DUNE) exec bin/cfdc.exe -- explore $(KERNEL) --jobs 1 --stats
	$(DUNE) exec bin/cfdc.exe -- explore $(KERNEL) --jobs 4 --stats

clean:
	$(DUNE) clean
	rm -rf cost-out memprof-out timeline-out crash-reports .cfdc-cache
	rm -f profile_trace.json profile_metrics.json
