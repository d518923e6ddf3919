"""Run all (or selected) figure reproductions in paper order.

``python -m repro.experiments`` prints every figure;
``python -m repro.experiments fig08 fig10`` a selection.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.metrics.report import Figure

__all__ = ["ALL_EXPERIMENTS", "run_all"]


def _registry() -> Dict[str, Callable[..., Figure]]:
    # Imported lazily to avoid import cycles with repro.experiments.
    from repro.experiments import (
        run_fig01, run_fig02, run_fig04, run_fig05, run_fig08, run_fig09,
        run_fig10, run_fig11, run_fig12, run_fig13, run_fig14, run_fig15,
        run_fig16,
    )

    return {
        "fig01": run_fig01,
        "fig02": run_fig02,
        "fig04": run_fig04,
        "fig05": run_fig05,
        "fig08": run_fig08,
        "fig09": run_fig09,
        "fig10": run_fig10,
        "fig11": run_fig11,
        "fig12": run_fig12,
        "fig13": run_fig13,
        "fig14": run_fig14,
        "fig15": run_fig15,
        "fig16": run_fig16,
    }


#: Experiment ids in paper order.
ALL_EXPERIMENTS = (
    "fig01", "fig02", "fig04", "fig05", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16",
)


def run_all(
    only: Optional[Iterable[str]] = None, seed: int = 0
) -> Dict[str, Figure]:
    """Run the selected experiments; returns ``{figure_id: Figure}``.

    Every name is validated before any figure runs, so a typo fails
    before the figures ahead of it have spent their simulation time.
    """
    registry = _registry()
    names = list(only) if only is not None else list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise KeyError(
            f"unknown experiments {unknown}; known: {sorted(registry)}"
        )
    return {name: registry[name](seed=seed) for name in names}
