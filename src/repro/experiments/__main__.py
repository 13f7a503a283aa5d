"""Command-line figure regenerator.

Usage::

    python -m repro.experiments            # list experiments
    python -m repro.experiments fig6_v     # run one figure
    python -m repro.experiments all        # run everything
    python -m repro.experiments fig9 --seed 7 --days 14

Each experiment prints its figure as plain-text tables; the paper's
claimed shape for every figure is asserted by
``tests/integration/test_paper_figures.py``.
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.exceptions import ConfigurationError
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.telemetry import monotonic

logger = logging.getLogger("repro.experiments")


def _configure_logging(level_name: str) -> None:
    """Console logging to stderr for one CLI invocation (``force=True``
    rebinds handlers so repeated in-process runs never write to a
    stale captured stream).  Figure tables stay on stdout."""
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        raise SystemExit(f"unknown log level {level_name!r}")
    fmt = ("%(message)s" if level >= logging.INFO
           else "%(levelname)s %(name)s: %(message)s")
    logging.basicConfig(stream=sys.stderr, level=level, format=fmt,
                        force=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the SmartDPSS paper's figures.")
    parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id (fig5, fig6_v, fig6_t, fig7, fig8, fig9, "
             "fig10, ablations) or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="root trace seed")
    parser.add_argument("--days", type=int, default=None,
                        help="horizon length in days")
    parser.add_argument("--log-level", default="info",
                        help="console log level on stderr "
                             "(debug/info/warning/error; default: info)")
    return parser


def list_experiments() -> str:
    lines = ["available experiments:"]
    for experiment in EXPERIMENTS.values():
        lines.append(f"  {experiment.experiment_id:10s} "
                     f"{experiment.description}")
    lines.append("  all        run every experiment")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.log_level)
    if args.experiment is None:
        print(list_experiments())
        return 0
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.days is not None:
        kwargs["days"] = args.days
    targets = (list(EXPERIMENTS) if args.experiment == "all"
               else [args.experiment])
    for experiment_id in targets:
        if experiment_id not in EXPERIMENTS:
            logger.error("unknown experiment %r", experiment_id)
            print(list_experiments(), file=sys.stderr)
            return 2
        started = monotonic()
        try:
            text = run_experiment(experiment_id, **kwargs)
        except ConfigurationError as error:
            logger.error("%s: %s", experiment_id, error)
            return 2
        print(text)
        elapsed = monotonic() - started
        logger.info("[%s finished in %.1fs]", experiment_id, elapsed)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
