"""The fleet benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-1d --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every workload

Workloads are defined in ``workloads.py``.  Each run:

1. starts ``measure.py`` in a fresh process, which runs the workload's
   fleet through ``FleetRunner(...).run()`` into fresh
   ``ResultStore``\\ s for ``--seconds`` seconds and checks the records
   (canonical digest stable across runs, pinned at the default seed,
   byte-identical under another shard and chunk size);
2. times ``setup_probe.py`` from launch to ``ready`` in several fresh
   interpreters (import, fleet build, shard planning);
3. with ``--trace 1``, also runs ``python -X importtime`` on the fleet
   package for the start-up split.

``scenarios_per_s`` and ``cpu_ms_per_scenario`` are scaled to a
reference host speed with the vCPU gauge of ``reference.py``: of the
fleet runs, the third whose gauges read fastest count, each scaled by
its own gauge.  A shared host's vCPUs slow down by up to 40% for
seconds at a time, and this keeps that out of the figures.  The
unscaled medians are printed as rows too.  ``setup_s`` is not scaled:
start-up is mostly system calls and page faults, which the kernel
gauge does not track.

It prints the environment, a table of metrics with units and, as its
last line, one JSON object: ``correct``, ``attempted`` and ``failed``
(scenarios, over all measured fleet runs) and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones listed in ``BENCHMARK.json``.  A record check that
fails prints the reason on stderr and exits with status 1.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Fresh interpreters timed per run for ``setup_s`` (the median is
#: reported).
SETUP_PROBES = 9

#: Seconds the measurement child may take beyond ``--seconds``, and
#: the most a set-up probe may take.
MEASURE_GRACE_S = 100
PROBE_TIMEOUT_S = 30


class BenchError(Exception):
    """A child process failed or the records did not check out."""


def _run_child(cmd: list[str], timeout: float) -> str:
    """Run ``cmd`` in its own process group; return its stdout.

    On timeout the whole group (the child and any pool workers) is
    killed before the error is raised.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(cmd[1]).name} timed out after {timeout}s")
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited with status "
                         f"{proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool, work: Path) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--work", str(work)]
    if tiny:
        cmd.append("--tiny")
    out = _run_child(cmd, seconds + MEASURE_GRACE_S)
    return json.loads(out.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, tiny: bool) -> float:
    """Launch-to-``ready`` time of one fresh set-up probe."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        # The probe prints its one line in a single flushed write.
        if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
            raise BenchError("set-up probe printed nothing in "
                             f"{PROBE_TIMEOUT_S}s")
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not line.startswith("ready"):
        raise BenchError(f"set-up probe failed (status {proc.returncode})")
    return elapsed


def import_split() -> dict:
    """``startup.*`` seconds from ``python -X importtime``.

    ``import_s`` is the cumulative time of the top-level ``repro``
    imports; ``scipy_import_s`` is the self time of every ``scipy``
    module they pull in.
    """
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            f"import repro.fleet")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise BenchError("importtime probe failed")
    total_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_us, cumulative_us = int(parts[0]), int(parts[1])
        name = parts[2].rstrip()
        module = name.strip()
        if module.split(".")[0] == "scipy":
            scipy_us += self_us
        if module.split(".")[0] == "repro" and name[1:2] != " ":
            total_us += cumulative_us  # top level: no nesting indent
    return {"startup.import_s": total_us / 1e6,
            "startup.scipy_import_s": scipy_us / 1e6}


def fingerprint() -> dict:
    """Where the numbers came from: code revision and machine."""
    env = {"git_rev": "unknown", "dirty": None}
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"],
                                capture_output=True, text=True)
        if rev.returncode == 0:
            env["git_rev"] = rev.stdout.strip()
            env["dirty"] = bool(status.stdout.strip())
    env["python"] = platform.python_version()
    for package in ("numpy", "scipy"):
        try:
            env[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            env[package] = None
    env["nproc"] = len(os.sched_getaffinity(0))
    env["cpu"] = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return env


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, scaled to the reference host, and the
    unscaled timings beside them."""
    plain = result["plain"]
    quiet = sorted(plain, key=lambda r: r["ref_s"])[:max(1, len(plain) // 3)]
    metrics = {
        "scenarios_per_s": statistics.median(
            r["executed"] / r["wall_s"] * r["ref_s"] / NOMINAL_S
            for r in quiet),
        "cpu_ms_per_scenario": statistics.median(
            1000.0 * r["cpu_s"] / r["executed"] * NOMINAL_S / r["ref_s"]
            for r in quiet),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": result["peak_rss_mib"],
        "store_bytes_per_scenario": statistics.median(
            r["store_bytes"] / r["executed"] for r in plain),
    }
    raw = {
        "scenarios_per_s": statistics.median(
            r["executed"] / r["wall_s"] for r in plain),
        "cpu_ms_per_scenario": statistics.median(
            1000.0 * r["cpu_s"] / r["executed"] for r in plain),
        "kernel_ms": 1000.0 * statistics.median(r["ref_s"] for r in plain),
    }
    return metrics, raw


def _print_stages(result: dict) -> None:
    stages = result["stages"]
    shard = stages["shard"]
    rows = [(name, stages[name]) for name in stages
            if name != "shard" and stages[name] > 0]
    rows.sort(key=lambda row: -row[1])
    rows.append(("other", shard - sum(total for _, total in rows)))
    print(f"  stage shares of shard time ({shard:.4f} s per traced fleet "
          f"run, mean of {result['traced_runs']}):")
    for name, total in rows:
        print(f"    {name:<16} {total:>9.4f} s {100 * total / shard:>6.1f}%")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool, work: Path) -> dict:
    """Measure one workload; print its table; return its JSON result."""
    result = measure(workload, seed, seconds, trace, tiny, work)
    if trace:
        metrics = {**result["per_layer"], **import_split()}
    else:
        probes = 1 if tiny else SETUP_PROBES
        setup = [setup_seconds(workload, seed, tiny) for _ in range(probes)]
        metrics, raw = end_to_end(result, setup)
    print(f"workload {workload}: seed {seed}, {result['scenarios']} "
          f"scenarios per fleet run, trace {int(trace)}")
    pinned = ("matches the pinned digest" if result["pinned"]
              else "no digest pinned for this fleet")
    print(f"  records sha256 {result['digest']} ({pinned}); "
          f"{result['sample']}-scenario shard/chunk re-run identical")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {UNITS[name]}")
    if trace:
        _print_stages(result)
    else:
        print(f"  unscaled medians (kernel {raw.pop('kernel_ms'):.2f} ms, "
              f"reference {1000 * NOMINAL_S:.0f} ms):")
        for name, value in raw.items():
            print(f"    {name:<26} {value:>14.6g} {UNITS[name]}")
        failed_frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':<28} {failed_frac:>14.6g} share "
              f"({result['failed']} of {result['attempted']} scenarios)")
    return {"correct": True, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny fleets and one set-up probe (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "fleet").is_dir():
        print(f"perfbench: no fleet package under {ROOT / 'src'}; run from "
              f"a full checkout of the repository", file=sys.stderr)
        return 2

    print("env " + json.dumps(fingerprint(), sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    work = HERE / "_work" / str(os.getpid())
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), args.tiny,
                                         work)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": True,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
