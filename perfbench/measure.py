"""Measure one workload in a fresh process; print one JSON line.

``run.py`` starts this script as a child, so the peak RSS and CPU time
it reports cover exactly the fleet runs: this process plus the pool
workers it reaps.  Usage::

    python3 perfbench/measure.py --workload sweep-1d --seed 0 \\
        --seconds 20 --trace 0 --work perfbench/_work/x [--tiny]

It runs the workload's fleet once to warm up, then again and again
until ``--seconds`` have passed, each time into a fresh
``ResultStore``.  Every run's records must hash to the same canonical
digest (see :func:`canonical_lines`).  Afterwards it re-runs a sample
of the fleet with another shard and chunk size and requires
byte-identical records, and at the default seed it compares the
digest with the one pinned in ``digests.json``.

Between fleet runs it gauges each vCPU's speed with the fixed kernel
of :mod:`reference`.  A single-process fleet runs pinned to the vCPU
that gauged fastest; a pool fleet uses them all.  Each run carries
``ref_s``: on each vCPU it used, the slower kernel time of the gauges
just before and after it, averaged over those vCPUs.  ``run.py`` uses
it to pick the runs on a quiet host and scale them to the reference
speed.

With ``--trace 1`` the runs alternate untraced and traced
(``telemetry=True`` plus the timers of :mod:`layers`).  The first run
is a traced cold run, which gives the first shard's LP compile.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

# workloads puts the repository's src/ on sys.path, so it comes first.
from workloads import DEFAULT_SEED, WORKLOADS, Workload, build_specs  # noqa: E402
from layers import ShardLog, tracing  # noqa: E402
from reference import cpus, fastest, gauge, run_on  # noqa: E402

from repro.fleet import FleetRunner, ResultStore  # noqa: E402

#: Scenarios re-run for the shard/chunk invariance check, and the
#: shard and chunk sizes they are re-run with (the defaults are 256
#: and 4).
SAMPLE_SIZE = 16
SAMPLE_BATCH = 5
SAMPLE_CHUNK = 1

#: Stages that run directly under a shard's ``shard`` span and do not
#: overlap each other; the rest of the shard's time is ``other``.
TOP_LEVEL_STAGES = ("build", "traces", "slot_loop", "delay_replay",
                    "collect", "offline_lp", "offline_replay",
                    "robustness")

DIGESTS_PATH = HERE / "digests.json"


class RecordMismatch(Exception):
    """The fleet's records differ from what they must be."""


def _cpu_s() -> float:
    """CPU seconds of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Largest RSS of this process or any reaped child, in MiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def canonical_lines(store: ResultStore, specs, records) -> list[str]:
    """The store's result lines ordered by spec position.

    Checks on the way that the store holds exactly one line per
    healthy scenario, and that each line is the record ``run()``
    returned for it, serialized the way the store writes it.
    """
    position = {spec.spec_hash(): i for i, spec in enumerate(specs)}
    by_position: dict[int, str] = {}
    for line in store.path.read_text(encoding="utf-8").splitlines():
        index = position[json.loads(line)["spec_hash"]]
        if index in by_position:
            raise RecordMismatch(f"scenario {index} stored twice")
        by_position[index] = line
    healthy = [i for i, record in enumerate(records)
               if not record.get("quarantined")]
    if sorted(by_position) != healthy:
        raise RecordMismatch("stored scenarios differ from the healthy "
                             "scenarios run() returned")
    for index in healthy:
        if json.dumps(records[index], sort_keys=True) != by_position[index]:
            raise RecordMismatch(f"stored record {index} differs from "
                                 f"the record run() returned")
    return [by_position[i] for i in healthy]


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def run_fleet(workload: Workload, specs, store_dir: Path, *,
              telemetry: bool = False, log=None, **overrides) -> dict:
    """One ``FleetRunner.run()`` into a fresh store, timed."""
    shutil.rmtree(store_dir, ignore_errors=True)
    store = ResultStore(store_dir)
    kwargs = {**workload.runner_kwargs(), **overrides}
    runner = FleetRunner(specs, store=store, telemetry=telemetry, **kwargs)
    if log is not None:
        log.attach(runner, store)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    records = runner.run(progress=log)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    lines = canonical_lines(store, specs, records)
    failed = sum(1 for record in records if record.get("quarantined"))
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "executed": runner.last_run_stats["executed"],
        "attempted": len(specs),
        "failed": failed,
        "store_bytes": store.path.stat().st_size,
        "digest": digest(lines),
        "lines": lines,
        "records": records,
    }
    if telemetry:
        result["manifest"] = store.manifests()[-1]
    shutil.rmtree(store_dir, ignore_errors=True)
    return result


def sample_positions(n_specs: int, seed: int) -> list[int]:
    """Spec positions re-run by the invariance check."""
    rng = np.random.default_rng(seed)
    size = min(SAMPLE_SIZE, n_specs)
    return sorted(int(i) for i in
                  rng.choice(n_specs, size=size, replace=False))


def check_invariance(workload: Workload, specs, positions: list[int],
                     expected: set[str], work: Path) -> None:
    """Re-run a sample of the fleet with another shard and chunk size.

    Records are scenario-local, so the sampled scenarios' records must
    be byte-identical to the measured run's (``expected``).
    """
    sample = run_fleet(workload, [specs[i] for i in positions],
                       work / "sample", batch_size=SAMPLE_BATCH,
                       chunk_coarse=SAMPLE_CHUNK, max_workers=None)
    if set(sample["lines"]) != expected:
        raise RecordMismatch(
            f"records changed with batch_size={SAMPLE_BATCH}, "
            f"chunk_coarse={SAMPLE_CHUNK} on a {len(positions)}-scenario "
            f"sample")


def pinned_digest(workload: Workload, seed: int, n_specs: int):
    """The pinned digest for this fleet, or ``None`` if none is."""
    if seed != DEFAULT_SEED:
        return None
    pinned = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    entry = pinned.get(workload.name)
    if entry is None or entry["scenarios"] != n_specs:
        return None
    return entry["sha256"]


def _stage(stages: dict, name: str) -> float:
    return float(stages.get(name, {}).get("total_s", 0.0))


def layer_metrics(run: dict) -> dict:
    """Per-layer figures of one traced fleet run, from its manifest."""
    manifest = run["manifest"]
    stages, counters = manifest["stages"], manifest["counters"]

    def s(name: str) -> float:
        return _stage(stages, name)

    shard = s("shard")
    covered = sum(s(name) for name in TOP_LEVEL_STAGES)
    solves = int(stages.get("lp_solve", {}).get("count", 0))
    return {
        "runner.build_s": s("build"),
        "runner.spec_decode_s": s("bench.spec_decode"),
        "runner.record_encode_s": s("bench.record_encode"),
        "runner.shard_s": shard,
        "runner.unattributed_share": (shard - covered) / shard,
        "store.append_s": s("store_append"),
        "store.appends": int(stages.get("store_append", {})
                             .get("count", 0)),
        "store.bytes": run["store_bytes"],
        "engine.traces_s": s("traces"),
        "engine.chunks": int(counters.get("chunks", 0)),
        "engine.slot_loop_s": s("slot_loop"),
        "engine.slots": int(counters.get("slots", 0)),
        "engine.delay_replay_s": s("delay_replay"),
        "engine.collect_s": s("collect"),
        "sim.physics_s": s("physics"),
        "core.plan_s": s("plan"),
        "core.p4_s": s("p4"),
        "core.plan_other_s": s("plan") - s("p4"),
        "core.boundaries": int(counters.get("boundaries", 0)),
        "core.real_time_s": s("real_time"),
        "core.p5_s": s("p5"),
        "traces.materialize_s": s("bench.materialize"),
        "lp.solve_s": s("lp_solve"),
        "lp.solves": solves,
        "lp.ms_per_solve": 1000.0 * s("lp_solve") / solves if solves else 0.0,
        "lp.offline_other_s": s("offline_lp") - s("lp_solve"),
        "lp.degraded": int(counters.get("offline_degraded", 0)),
        "offline.replay_s": s("offline_replay"),
        "observe.perturb_s": s("bench.perturb"),
        "engine.robustness_s": s("robustness"),
    }


def top_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples above it
    (50 when there are too few samples for any higher one)."""
    return max(50, int(100 * (1 - 10 / n)))


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            tiny: bool, work: Path) -> dict:
    specs = build_specs(workload, seed, tiny)
    store_dir = work / "store"
    plain, traced, logs = [], [], []

    def traced_run() -> dict:
        log = ShardLog()
        with tracing():
            run = run_fleet(workload, specs, store_dir, telemetry=True,
                            log=log)
        logs.append(log)
        return run

    # Warm-up: lazy caches fill here.  In a traced run it is the cold
    # run whose first shard pays the LP compile.
    first = traced_run() if trace else run_fleet(workload, specs, store_dir)
    reference_digest = first["digest"]
    positions = sample_positions(len(specs), seed)
    expected = {json.dumps(first["records"][i], sort_keys=True)
                for i in positions
                if not first["records"][i].get("quarantined")}
    del first
    all_cpus = cpus()
    before = gauge(all_cpus)
    deadline = time.perf_counter() + seconds
    while True:
        used = all_cpus if workload.workers > 1 else [fastest(before)]
        with run_on(used):
            if trace and len(plain) > len(traced):
                run = traced_run()
                traced.append(run)
            else:
                run = run_fleet(workload, specs, store_dir)
                plain.append(run)
        after = gauge(all_cpus)
        run["ref_s"] = statistics.mean(max(before[c], after[c])
                                       for c in used)
        before = after
        # Only the summary of a run is kept, so memory stays flat.
        del run["records"], run["lines"]
        if run["digest"] != reference_digest:
            raise RecordMismatch("records differ between repeated runs "
                                 "of the same fleet")
        done = len(plain) + len(traced)
        if time.perf_counter() >= deadline and done >= (4 if trace else 3):
            break

    check_invariance(workload, specs, positions, expected, work)
    pinned = pinned_digest(workload, seed, len(specs))
    if pinned is not None and pinned != reference_digest:
        raise RecordMismatch(
            f"record digest {reference_digest} != pinned {pinned} for "
            f"{workload.name} at seed {seed}")

    runs = plain + traced
    out = {
        "workload": workload.name,
        "scenarios": len(specs),
        "digest": reference_digest,
        "pinned": pinned is not None,
        "sample": len(positions),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "peak_rss_mib": peak_rss_mib(),
        "plain": [{k: r[k] for k in ("wall_s", "cpu_s", "executed",
                                     "store_bytes", "ref_s")}
                  for r in plain],
    }
    if trace:
        layers = [layer_metrics(r) for r in traced]
        per_layer = {name: statistics.median(row[name] for row in layers)
                     for name in layers[0]}
        warm = logs[1:]
        shard_ms = [ms for log in warm for ms in log.shard_ms]
        q = top_percentile(len(shard_ms))
        per_layer.update({
            "runner.shard_ms_p50": float(np.percentile(shard_ms, 50)),
            "runner.shard_ms_ptop": float(np.percentile(shard_ms, q)),
            "runner.shard_ms_ptop_q": q,
            "runner.shard_samples": len(shard_ms),
            "runner.pool_wait_s": statistics.median(
                sum(log.wait_s) for log in warm),
            "runner.payload_kib": statistics.mean(
                b for log in warm for b in log.bytes) / 1024.0,
            "lp.first_shard_s": logs[0].offline_lp_s[0],
            "failed_frac": out["failed"] / out["attempted"],
            "tracing.overhead": (
                statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1.0),
        })
        out["per_layer"] = per_layer
        # Means, not medians, so that the rows add up to the shard time.
        out["stages"] = {name: statistics.mean(
            _stage(r["manifest"]["stages"], name) for r in traced)
            for name in TOP_LEVEL_STAGES + ("shard",)}
        out["traced_runs"] = len(traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), args.tiny, work)
    except RecordMismatch as error:
        print(f"RECORD CHECK FAILED: {error}", file=sys.stderr)
        return 3
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
