"""CLI entry point: print the reproduction of every paper figure.

``python -m repro.experiments`` prints all figures in paper order;
``python -m repro.experiments fig08 fig10`` prints a selection.
"""

from __future__ import annotations

import argparse

from repro.experiments.runner import run_all


def main(argv=None) -> int:
    """Run ``python -m repro.experiments [--seed S] [figXX ...]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="figXX",
        help="subset of figures to run (default: all, in paper order)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="simulation seed (default 0)"
    )
    args = parser.parse_args(argv)
    only = args.figures or None
    for figure_id, figure in run_all(only=only, seed=args.seed).items():
        print(figure.render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
