# Developer entry points.  Everything assumes the in-repo layout
# (PYTHONPATH=src); no installation required.

PY := PYTHONPATH=src python

.PHONY: check test test-fast test-equivalence test-telemetry test-faults \
	test-lint test-noise test-offline lint typecheck bench bench-layers \
	test-perfbench reach

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

# Exactness only (the `equivalence` marker): the cross-engine
# equivalence harness, the golden fixtures, and the selection rule
# P4 and P5 share — their near-tie scan tests and P4's plain-Python
# window-cost oracle (tests/property/test_property_p4.py, checked
# against the library's kernel; the one-rate probe of that kernel is
# tests/oracles/selection.py::window_cost).
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

# Lint suite only: rule fixtures + the src/repro and tests/oracles
# clean gate (the `lint` marker; `make test` runs these as part of
# tier-1).
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

# The repo's own AST linter over the library source and the test
# oracles (tests/oracles/, the reference implementations the tests
# check the library against).  Exit 0 means every invariant in
# src/repro/lint/README.md holds (modulo inline waivers).
lint:
	$(PY) -m repro.lint src/repro tests/oracles

# The reach probe (tests/reach.py, not part of tier-1): runs the
# production entry points in one process under a sys.setprofile hook
# and lists each src/repro function that never ran, with file:line and
# size.  The dead-code scan (tests/test_dead_code.py) matches names, so
# this finds the methods it cannot see.  About half a minute.
reach:
	$(PY) tests/reach.py

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
