"""CLI entry point: print the reproduction of every paper figure.

``python -m repro.experiments`` prints all figures in paper order;
``python -m repro.experiments fig08 fig10`` prints a selection.  The
``experiments`` subcommand of ``python -m repro`` takes the same
arguments through :func:`add_arguments` and :func:`run`.
"""

from __future__ import annotations

import argparse

from repro.experiments.runner import run_all


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the figure selection and ``--seed`` on ``parser``."""
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="figXX",
        help="subset of figures to run (default: all, in paper order)",
    )
    # SUPPRESS: an absent --seed must not overwrite one that
    # ``python -m repro --seed S experiments`` parsed before the subcommand.
    parser.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="simulation seed (default 0)",
    )


def run(args: argparse.Namespace) -> int:
    """Print the selected figures (all when none are named)."""
    only = args.figures or None
    for figure in run_all(only=only, seed=args.seed).values():
        print(figure.render())
        print()
    return 0


def main(argv=None) -> int:
    """Run ``python -m repro.experiments [--seed S] [figXX ...]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures.",
    )
    add_arguments(parser)
    parser.set_defaults(seed=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
