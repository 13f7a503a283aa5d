# Developer entry points.  Everything assumes the in-repo layout
# (PYTHONPATH=src); no installation required.

PY := PYTHONPATH=src python

.PHONY: check test test-fast test-equivalence test-telemetry test-faults \
	test-lint test-noise test-offline lint typecheck bench bench-layers \
	test-perfbench

# Everything a change must pass, in order: the linter, the tier-1
# suite, then perfbench's self-tests.  perfbench wraps library names
# (e.g. ScenarioMetrics.as_dict) at import time, so renaming one fails
# test-perfbench while the tier-1 suite stays green.
check: lint test test-perfbench

# Tier-1 verify: the full suite, fail-fast.
test:
	$(PY) -m pytest -x -q

# Quick inner loop: skip the long-horizon integration tests.
test-fast:
	$(PY) -m pytest -x -q -m "not slow"

# Just the cross-engine equivalence harness + golden fixtures.
test-equivalence:
	$(PY) -m pytest -q -m equivalence

# Telemetry subsystem only: collectors, manifests, on/off bit-identity
# (the `telemetry` marker; `make test` runs these as part of tier-1).
test-telemetry:
	$(PY) -m pytest -q -m telemetry

# Chaos suite only: deterministic fault injection through every fleet
# recovery path — retry, bisection, quarantine, pool respawn, torn
# writes (the `faults` marker; `make test` runs these as part of
# tier-1).
test-faults:
	$(PY) -m pytest -q -m faults

# Lint suite only: rule fixtures + the src/repro clean gate (the
# `lint` marker; `make test` runs these as part of tier-1).
test-lint:
	$(PY) -m pytest -q -m lint

# Observation layer only: streamed noise/sensor-fault models, chunk
# invariance, streamed == in-memory equivalence and robustness sweeps
# (the `noise` marker; `make test` runs these as part of tier-1).
test-noise:
	$(PY) -m pytest -q -m noise

# Offline baseline only: LP-heavy packs — batched == scalar plans,
# the fleet gap column, trace-twin sharing, the public-HiGHS fallback
# (the `offline` marker; `make test` runs these as part of tier-1).
test-offline:
	$(PY) -m pytest -q -m offline

# The repo's own AST linter over the library source.  Exit 0 means
# every invariant in src/repro/lint/README.md holds (modulo inline
# waivers and the checked-in lint-baseline.txt).
lint:
	$(PY) -m repro.lint src/repro

# Static type check of the clean leaf modules (see mypy.ini).  mypy is
# an optional dev dependency (`pip install repro[dev]`); when it is
# not installed this target skips instead of failing, so `make
# typecheck` is safe to chain in CI recipes on minimal images.
typecheck:
	@$(PY) -c "import mypy" 2>/dev/null \
		&& $(PY) -m mypy --config-file mypy.ini \
		|| echo "mypy not installed; skipping (pip install repro[dev])"

# The performance benchmark (BENCHMARK.json): both fleet workloads,
# end-to-end throughput, CPU, set-up, memory and store size, with the
# pinned record digests checked at seed 0.
bench:
	python3 perfbench/run.py --workload all --seed 0 --trace 0

# The same plus traced runs: per-layer stage times from the run
# manifests and the start-up import split.
bench-layers:
	python3 perfbench/run.py --workload all --seed 0 --trace 1

# The benchmark harness's own self-tests.
test-perfbench:
	python3 -m pytest perfbench -q
