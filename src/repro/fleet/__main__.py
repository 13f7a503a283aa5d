"""Fleet command line: run streamed sweeps, report aggregated tables.

Examples
--------
Run a 10⁴-scenario streamed V-sweep (20 values × 500 seeds) on a
one-day horizon and stream results into ``out/fleet``::

    python -m repro.fleet run --demo v-sweep --scenarios 10000 \\
        --days 1 --t-slots 6 --out out/fleet --workers 2

Run a scenario-diverse random fleet (controller and trace parameters
sampled per scenario)::

    python -m repro.fleet run --demo random --scenarios 5000 --out out/r

Run an explicit fleet from a JSON file (a list of ScenarioSpec
dicts)::

    python -m repro.fleet run --spec-file fleet.json --out out/custom

Pair every scenario with a noisy-observation twin (20 % uniform
sensor error) and record the robustness gap::

    python -m repro.fleet run --demo v-sweep --out out/fleet \\
        --robustness 0.2

Aggregate whatever a store holds into a seed-averaged table::

    python -m repro.fleet report --out out/fleet

Instrument a run and read its per-stage wall-time breakdown back::

    python -m repro.fleet run --demo v-sweep --out out/fleet --telemetry
    python -m repro.fleet stats out/fleet
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from repro.fleet.engine import ScenarioMetrics
from repro.fleet.runner import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_CHUNK_COARSE,
    FleetRunner,
    RunProgress,
    ShardOutcome,
)
from repro.fleet.spec import (
    ScenarioSpec,
    grid_specs,
    sample_specs,
)
from repro.fleet.store import DEFAULT_TABLE_METRICS, ResultStore
from repro.telemetry import RunManifest, monotonic, stage_split
from repro.exceptions import ConfigurationError, StateError

DEMOS = ("v-sweep", "t-sweep", "random")

logger = logging.getLogger("repro.fleet")


def _configure_logging(level_name: str) -> None:
    """Console logging to stderr for one CLI invocation.

    ``force=True`` rebinds handlers every call, so repeated in-process
    ``main()`` invocations (tests, notebooks) never write to a stale
    captured stream.  Reporting output (tables, manifests) stays on
    stdout; progress and diagnostics go through the ``repro.*`` logger
    hierarchy to stderr.
    """
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        raise SystemExit(f"unknown log level {level_name!r}")
    fmt = ("%(message)s" if level >= logging.INFO
           else "%(levelname)s %(name)s: %(message)s")
    logging.basicConfig(stream=sys.stderr, level=level, format=fmt,
                        force=True)


def _template(days: int, t_slots: int) -> ScenarioSpec:
    return ScenarioSpec(
        system={"preset": "paper", "days": days,
                "fine_slots_per_coarse": t_slots},
        controller={"kind": "smartdpss"},
        trace={"kind": "stream"},
    )


def build_demo_fleet(demo: str, n_scenarios: int, days: int,
                     t_slots: int, sample_seed: int
                     ) -> list[ScenarioSpec]:
    """Deterministically expand a demo description into a fleet."""
    if n_scenarios < 1:
        raise ConfigurationError(f"need >= 1 scenario, got {n_scenarios}")
    template = _template(days, t_slots)
    if demo == "v-sweep":
        values = [round(float(v), 4)
                  for v in np.geomspace(0.05, 5.0, num=20)]
        seeds = range(max(1, -(-n_scenarios // len(values))))
        specs = grid_specs(template, "controller.v", values, seeds=seeds)
        return specs[:n_scenarios]
    if demo == "t-sweep":
        values = [t for t in (3, 6, 12, 24) if (days * 24) % t == 0]
        seeds = range(max(1, -(-n_scenarios // len(values))))
        specs = grid_specs(template, "system.fine_slots_per_coarse",
                           values, seeds=seeds)
        return specs[:n_scenarios]
    if demo == "random":
        space = {
            "controller.v": (0.05, 5.0),
            "controller.epsilon": (0.25, 2.0),
            "trace.solar.capacity_mw": (2.0, 6.0),
            "trace.price.mean_price": (35.0, 65.0),
        }
        return sample_specs(template, space, n_scenarios,
                            seed=sample_seed)
    raise ConfigurationError(f"unknown demo {demo!r}; expected one of {DEMOS}")


def load_spec_file(path: Path) -> list[ScenarioSpec]:
    """A fleet from a JSON file: a list of ScenarioSpec dicts."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise ConfigurationError(
            f"{path}: expected a JSON list of ScenarioSpec objects")
    return [ScenarioSpec.from_dict(entry) for entry in payload]


def _eta_text(eta_s: float) -> str:
    return "?" if eta_s == float("inf") else f"{eta_s:.0f}s"


def cmd_run(args: argparse.Namespace) -> int:
    try:
        if args.spec_file is not None:
            specs = load_spec_file(Path(args.spec_file))
        else:
            specs = build_demo_fleet(args.demo, args.scenarios, args.days,
                                     args.t_slots, args.sample_seed)
        runner = FleetRunner(specs, batch_size=args.batch_size,
                             chunk_coarse=args.chunk_coarse,
                             max_workers=args.workers,
                             resume=not args.no_resume,
                             offline_gap=args.offline_gap,
                             robustness=args.robustness,
                             telemetry=args.telemetry,
                             max_retries=args.max_retries,
                             shard_timeout=args.shard_timeout,
                             fail_fast=args.fail_fast,
                             retry_quarantined=args.retry_quarantined)
    except ConfigurationError as error:
        logger.error("%s", error)
        return 2
    # The store directory is created only once the fleet and the
    # runner validate, so bad arguments leave nothing behind.
    store = runner.store = ResultStore(args.out)

    t0 = monotonic()

    def verbose_progress(outcome: ShardOutcome, finished: int,
                         total: int, stats: RunProgress) -> None:
        logger.info(
            "  shard %d/%d done (%d scenarios, %.2fs; "
            "cumulative %.0f scenarios/s, eta %s)",
            finished, total, len(outcome.indices), outcome.elapsed_s,
            stats.rate, _eta_text(stats.eta_s))

    def quiet_progress(outcome: ShardOutcome, finished: int,
                       total: int, stats: RunProgress) -> None:
        # Single overwriting line; only on a real terminal so captured
        # CI/test output stays clean.
        if not sys.stderr.isatty():
            return
        sys.stderr.write(
            f"\r  {stats.scenarios_done}/{stats.scenarios_total} "
            f"scenarios, shard {finished}/{total} "
            f"({stats.rate:.0f}/s, eta {_eta_text(stats.eta_s)})  ")
        if finished == total:
            sys.stderr.write("\n")
        sys.stderr.flush()

    logger.info(
        "fleet: %d scenarios, %d shards, workers=%s, batch_size=%d, "
        "chunk_coarse=%d%s", len(specs), len(runner.shards()),
        args.workers or 1, args.batch_size, args.chunk_coarse,
        ", telemetry" if args.telemetry else "")
    runner.run(progress=verbose_progress if args.verbose
               else quiet_progress)
    elapsed = monotonic() - t0
    stats = runner.last_run_stats or {}
    # The rate counts executed scenarios only: resumed ones cost a
    # store scan, not a run.
    executed = stats.get("executed", 0)
    summary = (f"completed {executed} scenarios in {elapsed:.2f}s "
               f"({executed / elapsed:.0f} scenarios/s), "
               f"{stats.get('skipped', 0)} resumed from the store; "
               f"results in {store.path}")
    if stats.get("quarantined"):
        logger.warning(
            "%d scenario(s) quarantined (%d retries, %d pool respawns) "
            "— typed reasons in %s; re-offer them with "
            "--retry-quarantined", stats["quarantined"],
            stats.get("retries", 0), stats.get("pool_respawns", 0),
            store.error_path)
    if runner.last_manifest is not None:
        split = stage_split(runner.last_manifest.stages)
        if split:
            summary += f" [{split}]"
        summary += f"; manifest in {store.manifest_path}"
    logger.info("%s", summary)
    return 0


def _existing_store(root: str) -> ResultStore | None:
    """The store at ``root`` for a read command, or ``None`` (logged)
    when there is no such directory — reading never creates one."""
    if not Path(root).is_dir():
        logger.error("no result store at %s", root)
        return None
    return ResultStore(root)


def cmd_report(args: argparse.Namespace) -> int:
    store = _existing_store(args.out)
    if store is None:
        return 1
    if args.metrics:
        metrics = tuple(args.metrics.split(","))
    else:
        metrics = DEFAULT_TABLE_METRICS
        # Offline-gap and robustness columns are optional per run; show
        # them whenever every stored record carries them.
        present = store.metric_columns()
        metrics += tuple(name for name in ScenarioMetrics._OPTIONAL
                         if name in present)
    try:
        table = store.sweep_table(name=f"fleet report ({store.root})",
                                  metrics=metrics)
    except StateError as error:
        logger.error("%s", error)
        return 1
    print(table.render())
    print(f"{len(store)} records, {len(table.points)} distinct values")
    return 0


def _render_quarantine(store: ResultStore) -> bool:
    """Print the quarantined-scenario view; True if any exist."""
    errors = store.errors()
    if not errors:
        return False
    # A scenario that later succeeded (retry-quarantined rerun) is no
    # longer quarantined — only show hashes without a result record.
    resolved = store.spec_hashes()
    active = [record for record in errors
              if record.get("spec_hash") not in resolved]
    print(f"quarantined scenarios: {len(active)} active "
          f"({len(errors)} quarantine record(s) in {store.error_path})")
    for record in active:
        error = record.get("error", {})
        site = error.get("site")
        print(f"  {record.get('name', '?')} (seed {record.get('seed')}):"
              f" {error.get('type', '?')}"
              + (f" at {site!r}" if site else "")
              + f" after {error.get('attempts', '?')} attempt(s) — "
              + str(error.get("message", ""))[:100])
    if active:
        print("  (re-offer with: python -m repro.fleet run ... "
              "--retry-quarantined)")
    return True


def cmd_stats(args: argparse.Namespace) -> int:
    """Render run manifests (and quarantined scenarios) of a store."""
    store = _existing_store(args.store)
    if store is None:
        return 1
    manifests = store.manifests()
    shown = 0
    if manifests:
        selected = manifests if args.all else manifests[-1:]
        for data in selected:
            if shown:
                print()
            print(RunManifest.from_dict(data).render())
            shown += 1
        if not args.all and len(manifests) > 1:
            print(f"({len(manifests) - 1} earlier run(s) stored; "
                  f"--all shows every manifest)")
    if shown:
        print()
    had_errors = _render_quarantine(store)
    if not manifests and not had_errors:
        logger.error(
            "no run manifests in %s — run the fleet with --telemetry "
            "to record one", store.manifest_path)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--log-level", default="info",
                        help="console log level on stderr "
                             "(debug/info/warning/error; default: info)")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="execute a fleet of scenarios")
    run.add_argument("--out", required=True,
                     help="result-store directory (append-only)")
    run.add_argument("--demo", choices=DEMOS, default="v-sweep",
                     help="built-in fleet family (default: v-sweep)")
    run.add_argument("--scenarios", type=int, default=100,
                     help="fleet size for --demo (default: 100)")
    run.add_argument("--days", type=int, default=1,
                     help="horizon length in days (default: 1)")
    run.add_argument("--t-slots", type=int, default=6,
                     help="coarse slot length T in hours (default: 6)")
    run.add_argument("--spec-file", default=None,
                     help="JSON file with an explicit ScenarioSpec list "
                          "(overrides --demo)")
    run.add_argument("--workers", type=int, default=None,
                     help="process-pool size (default: in-process)")
    run.add_argument("--batch-size", type=int,
                     default=DEFAULT_BATCH_SIZE,
                     help="scenarios per vectorized shard")
    run.add_argument("--chunk-coarse", type=int,
                     default=DEFAULT_CHUNK_COARSE,
                     help="coarse slots of trace data resident per "
                          "scenario")
    run.add_argument("--telemetry", action="store_true",
                     help="record stage-level timing and counters; "
                          "appends a run manifest to the store's "
                          "manifest.jsonl (read it back with the "
                          "stats command)")
    run.add_argument("--offline-gap", action="store_true",
                     help="solve the clairvoyant offline baseline per "
                          "scenario (batched LP) and record "
                          "offline_cost/offline_gap columns")
    run.add_argument("--robustness", type=float, default=None,
                     metavar="REL",
                     help="re-run every scenario under uniform "
                          "observation noise of this relative error "
                          "and record noisy_cost/robustness_gap "
                          "columns (paired clean-vs-noisy sweep)")
    run.add_argument("--no-resume", action="store_true",
                     help="re-execute scenarios whose spec hash is "
                          "already stored (default: skip them and "
                          "serve the stored records — interrupted "
                          "sweeps resume cheaply)")
    run.add_argument("--max-retries", type=int, default=2,
                     help="times a failing shard is re-run as-is before "
                          "bisection (default: 2)")
    run.add_argument("--shard-timeout", type=float, default=None,
                     help="per-shard wall-clock budget in seconds "
                          "(pool mode; default: none)")
    run.add_argument("--fail-fast", action="store_true",
                     help="abort on the first shard failure instead of "
                          "retrying/bisecting/quarantining")
    run.add_argument("--retry-quarantined", action="store_true",
                     help="re-offer scenarios previously quarantined "
                          "in errors.jsonl (default: treat them as "
                          "done on resume)")
    run.add_argument("--sample-seed", type=int, default=0,
                     help="root seed for --demo random")
    run.add_argument("--verbose", action="store_true",
                     help="print per-shard progress")
    run.set_defaults(handler=cmd_run)

    report = commands.add_parser(
        "report", help="aggregate a result store into a table")
    report.add_argument("--out", required=True,
                        help="result-store directory to read")
    report.add_argument("--metrics", default=None,
                        help="comma-separated metric names")
    report.set_defaults(handler=cmd_report)

    stats = commands.add_parser(
        "stats", help="render stored run manifests (per-stage timing)")
    stats.add_argument("store",
                       help="result-store directory holding a "
                            "manifest.jsonl sidecar")
    stats.add_argument("--all", action="store_true",
                       help="render every stored manifest, not just "
                            "the latest run")
    stats.set_defaults(handler=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.log_level)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
