"""Top-level CLI: ``python -m repro <command>``.

Commands
--------
``experiments [--seed S] [figXX ...]``
    Run (all or selected) figure reproductions and print them; the
    arguments are those of ``python -m repro.experiments``.
``apps``
    List the evaluation application catalog with cost profiles.
``profiles``
    List the host hardware profiles.
``survey [--projects N]``
    Run the Fig 2 Dockerfile survey and print both panels.
``scenarios list``
    List the bundled scenario specs.
``scenarios show <spec>``
    Print a bundled (or JSON-file) spec as JSON.
``scenarios run <spec> [--jobs N] [--out DIR]``
    Run a scenario (bundled name or JSON spec file) and print the report.
``version``
    Print the package version.
"""

from __future__ import annotations

import argparse
import sys

import repro
from repro.experiments import __main__ as experiments_cli


def cmd_apps(args) -> int:
    from repro.metrics.report import format_table
    from repro.workloads import default_catalog

    catalog = default_catalog()
    rows = []
    for name in catalog.names():
        spec = catalog.get(name)
        rows.append(
            (
                name,
                spec.image,
                spec.language,
                spec.exec_ms,
                spec.app_init_ms,
                spec.mem_mb,
            )
        )
    print(
        format_table(
            ("app", "image", "language", "exec (ms)", "init (ms)", "mem (MB)"),
            rows,
        )
    )
    return 0


def cmd_profiles(args) -> int:
    from repro.hardware import get_profile, list_profiles
    from repro.metrics.report import format_table

    rows = []
    for name in list_profiles():
        profile = get_profile(name)
        rows.append(
            (
                name,
                profile.cores,
                profile.clock_ghz,
                profile.mem_mb,
                profile.compute_scale,
                profile.container_op_scale,
            )
        )
    print(
        format_table(
            ("profile", "cores", "GHz", "mem (MB)", "compute x", "ops x"),
            rows,
        )
    )
    return 0


def cmd_survey(args) -> int:
    from repro.experiments import run_fig02

    print(run_fig02(seed=args.seed, n_projects=args.projects).render())
    return 0


def _resolve_spec(name: str, seed: int):
    """A bundled scenario by name, or a spec loaded from a JSON file."""
    import os

    from repro.scenarios import bundled_names, bundled_spec, load_spec

    if name in bundled_names():
        return bundled_spec(name, seed=seed)
    if os.path.exists(name):
        return load_spec(name)
    known = ", ".join(bundled_names())
    raise SystemExit(
        f"unknown scenario {name!r}: not a bundled name ({known}) "
        "and not a spec file"
    )


def cmd_scenarios(args) -> int:
    from repro.scenarios import bundled_names, bundled_spec, run_scenario

    if args.action == "list":
        for name in bundled_names():
            spec = bundled_spec(name)
            print(f"{name:<32}{spec.description}")
        return 0
    spec = _resolve_spec(args.spec, seed=args.seed)
    if args.action == "show":
        print(spec.to_json(), end="")
        return 0
    report = run_scenario(spec, jobs=args.jobs, out_dir=args.out)
    print(report.render(), end="")
    if args.out:
        print(f"report artifacts written to {args.out}/")
    return 0


def cmd_version(args) -> int:
    print(repro.__version__)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HotC reproduction (CLUSTER 2021) command line",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    commands = parser.add_subparsers(dest="command", required=True)

    experiments = commands.add_parser(
        "experiments", help="run figure reproductions"
    )
    experiments_cli.add_arguments(experiments)
    experiments.set_defaults(func=experiments_cli.run)

    apps = commands.add_parser("apps", help="list the application catalog")
    apps.set_defaults(func=cmd_apps)

    profiles = commands.add_parser("profiles", help="list host profiles")
    profiles.set_defaults(func=cmd_profiles)

    survey = commands.add_parser("survey", help="run the Dockerfile survey")
    survey.add_argument("--projects", type=int, default=2_000)
    survey.set_defaults(func=cmd_survey)

    scenarios = commands.add_parser(
        "scenarios", help="list/show/run scenario specs"
    )
    actions = scenarios.add_subparsers(dest="action", required=True)
    scenarios_list = actions.add_parser("list", help="list bundled scenarios")
    scenarios_list.set_defaults(func=cmd_scenarios)
    scenarios_show = actions.add_parser("show", help="print a spec as JSON")
    scenarios_show.add_argument("spec", help="bundled name or spec file")
    scenarios_show.set_defaults(func=cmd_scenarios)
    scenarios_run = actions.add_parser("run", help="run a scenario")
    scenarios_run.add_argument("spec", help="bundled name or spec file")
    scenarios_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="arm worker processes (report identical to serial)",
    )
    scenarios_run.add_argument(
        "--out", default=None, help="write report.json/report.txt here"
    )
    scenarios_run.set_defaults(func=cmd_scenarios)

    version = commands.add_parser("version", help="print the version")
    version.set_defaults(func=cmd_version)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
