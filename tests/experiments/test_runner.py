"""Tests for the experiment runner and registry."""

import pytest

from repro.experiments import ALL_EXPERIMENTS, run_all
from repro.experiments import runner
from repro.experiments.runner import _registry


class TestRegistry:
    def test_all_ids_registered(self):
        registry = _registry()
        assert set(ALL_EXPERIMENTS) == set(registry)

    def test_paper_order(self):
        assert ALL_EXPERIMENTS == tuple(sorted(ALL_EXPERIMENTS))

    def test_every_figure_in_design_doc(self):
        """DESIGN.md's experiment index covers every registered id."""
        design = open("DESIGN.md").read()
        for figure_id in ALL_EXPERIMENTS:
            # fig01 -> "Fig 1", fig15 -> "Fig 15"
            short = f"Fig {int(figure_id[3:])}"
            assert short in design, figure_id


class TestRunAll:
    def test_selection(self):
        figures = run_all(only=["fig11"])
        assert list(figures) == ["fig11"]
        assert figures["fig11"].figure_id == "fig11"

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="fig99"):
            run_all(only=["fig99"])

    def test_figures_render(self):
        figures = run_all(only=["fig02", "fig11"])
        for figure in figures.values():
            text = figure.render()
            assert figure.figure_id in text
            assert "note:" in text


class TestRunOrder:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Stub every figure with a recorder; registry in reverse order."""
        calls = []

        def stub(name):
            def run(seed):
                calls.append((name, seed))
                return name

            return run

        stubs = {name: stub(name) for name in reversed(ALL_EXPERIMENTS)}
        monkeypatch.setattr(runner, "_registry", lambda: stubs)
        return calls

    def test_run_all_in_paper_order(self, calls):
        figures = run_all(seed=3)
        assert list(figures) == list(ALL_EXPERIMENTS)
        assert calls == [(name, 3) for name in ALL_EXPERIMENTS]

    def test_unknown_figure_raises_before_any_figure_runs(self, calls):
        with pytest.raises(KeyError, match="fig99"):
            run_all(only=["fig01", "fig99"])
        assert calls == []
