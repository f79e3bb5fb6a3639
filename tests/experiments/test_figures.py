"""Tests for the figure pipelines.

The full-grid runs with shape assertions live in ``benchmarks/``; here we
verify the pipelines' structure and the paper's core relations on a small
dataset and a three-point threshold grid, and pin every figure's numeric
series to the tables committed under ``benchmarks/results/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import (
    ALL_FIGURES,
    figure_07,
    figure_08,
    figure_09,
    figure_10,
    figure_11,
    paper_dataset,
    render_aggregate_rows,
)

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

THRESHOLDS = (30.0, 60.0, 100.0)


@pytest.fixture(scope="module")
def fig7(small_dataset_module):
    return figure_07(small_dataset_module, THRESHOLDS)


@pytest.fixture(scope="module")
def small_dataset_module():
    from repro.datagen import TrajectoryGenerator, URBAN

    generator = TrajectoryGenerator(seed=5)
    profile = URBAN.with_length(4_000.0)
    return [generator.generate(profile, object_id=f"mini-{i}") for i in range(3)]


class TestFigureStructure:
    def test_series_and_labels(self, fig7):
        assert fig7.figure_id == "fig07"
        assert fig7.algorithms() == ["ndp", "td-tr"]
        series = fig7.series("td-tr")
        assert [row.threshold_m for row in series] == list(THRESHOLDS)

    def test_unknown_series_raises(self, fig7):
        with pytest.raises(KeyError, match="have"):
            fig7.series("quantum")

    def test_fig10_speed_labels(self, small_dataset_module):
        fig = figure_10(small_dataset_module, THRESHOLDS, (5.0, 25.0))
        assert "opw-sp(5m/s)" in fig.algorithms()
        assert "opw-sp(25m/s)" in fig.algorithms()
        assert "td-sp(5m/s)" in fig.algorithms()
        assert "opw-tr" in fig.algorithms()

    def test_fig11_has_all_headliners(self, small_dataset_module):
        fig = figure_11(small_dataset_module, THRESHOLDS, (5.0,))
        assert set(fig.algorithms()) == {
            "ndp",
            "td-tr",
            "nopw",
            "opw-tr",
            "opw-sp(5m/s)",
        }


class TestPaperRelationsOnSmallGrid:
    def test_fig7_tdtr_much_lower_error(self, fig7):
        for ndp_row, tdtr_row in zip(fig7.series("ndp"), fig7.series("td-tr")):
            assert tdtr_row.mean_sync_error_m < ndp_row.mean_sync_error_m

    def test_fig8_bopw_compresses_more(self, small_dataset_module):
        fig = figure_08(small_dataset_module, THRESHOLDS)
        for bopw_row, nopw_row in zip(fig.series("bopw"), fig.series("nopw")):
            assert bopw_row.compression_percent >= nopw_row.compression_percent - 1e-9

    def test_fig9_opwtr_lower_error(self, small_dataset_module):
        fig = figure_09(small_dataset_module, THRESHOLDS)
        for nopw_row, opwtr_row in zip(fig.series("nopw"), fig.series("opw-tr")):
            assert opwtr_row.mean_sync_error_m < nopw_row.mean_sync_error_m

    def test_fig10_sp25_close_to_opwtr(self, small_dataset_module):
        fig = figure_10(small_dataset_module, THRESHOLDS, (5.0, 25.0))
        for tr_row, sp_row in zip(fig.series("opw-tr"), fig.series("opw-sp(25m/s)")):
            assert sp_row.compression_percent <= tr_row.compression_percent + 1e-9
            assert sp_row.mean_sync_error_m <= tr_row.mean_sync_error_m + 5.0


@pytest.mark.parametrize("figure_id", sorted(ALL_FIGURES))
def test_figure_matches_committed_table(figure_id):
    """Figs. 7–11 on the paper dataset regenerate their committed tables
    byte for byte: any change to a retained index or an error value
    anywhere in the sweep shows up here."""
    fig = ALL_FIGURES[figure_id](paper_dataset())
    rendered = render_aggregate_rows(fig.rows, title=fig.title) + "\n"
    assert rendered == (RESULTS_DIR / f"{figure_id}.txt").read_text()
