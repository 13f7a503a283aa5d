# Developer entry points.  Everything assumes the in-repo layout
# (PYTHONPATH=src); no installation required.

PY := PYTHONPATH=src python

.PHONY: test test-fast test-equivalence test-telemetry test-faults \
	test-lint test-noise test-offline lint typecheck bench-smoke \
	bench-batch bench-fleet bench-traces bench-offline bench-telemetry \
	bench-faults bench-noise benchmarks

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

# Tiny batch-vs-serial canary: fails if the batch engine errors,
# diverges from the scalar engine, or regresses past 2x serial.
bench-smoke:
	$(PY) benchmarks/smoke.py

# Full measurement on the fig10 scaling workload; writes BENCH_batch.json.
bench-batch:
	$(PY) benchmarks/bench_batch.py

# Fleet subsystem: streamed peak-memory + shard-count scaling on a
# 10^4-scenario sweep; writes BENCH_fleet.json.
bench-fleet:
	$(PY) benchmarks/bench_fleet.py

# Trace kernels: scalar loops vs vectorized batch kernels, per
# component, plus the streamed sweep's throughput; writes
# BENCH_traces.json.
bench-traces:
	$(PY) benchmarks/bench_traces.py

# Offline baseline at fleet scale: batched structure-stamped LP
# solves + one vectorized plan replay, gated on batched == scalar;
# writes BENCH_offline.json.
bench-offline:
	$(PY) benchmarks/bench_offline.py

# Telemetry overhead: instrumented vs uninstrumented 10^4-scenario
# streamed sweep, paired per shard, gated on bit-identical records and
# <= 2% CPU overhead; writes BENCH_telemetry.json.
bench-telemetry:
	$(PY) benchmarks/bench_telemetry.py

# Fault-harness overhead: disarmed vs armed-but-never-firing plan on
# the 10^4-scenario streamed sweep, paired per shard, gated on
# bit-identical records and <= 2% CPU overhead; writes
# BENCH_faults.json.
bench-faults:
	$(PY) benchmarks/bench_faults.py

# Observation-layer overhead: noise-off vs armed-but-quiet uniform
# model (rel_error=0) on the streamed sweep, paired per shard, gated
# on bit-identical noise-off records and <= 2% CPU overhead; writes
# BENCH_noise.json.
bench-noise:
	$(PY) benchmarks/bench_noise.py

# Figure-regeneration benchmarks (pytest-benchmark suite).
benchmarks:
	$(PY) -m pytest benchmarks -q
