"""Tests for statistics helpers, heatmaps and report formatting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.stats.collector import (arithmetic_mean,
                                   coefficient_of_variation,
                                   geometric_mean, per_tile_difference_cdf,
                                   rebin_series)
from repro.stats.heatmap import (hot_cold_summary, render_ascii,
                                 supertile_matrix, tile_matrix)
from repro.stats.report import (experiment_header, format_table,
                                summary_line)


class TestMeans:
    def test_geometric_mean_of_speedups(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_ignores_nonpositive(self):
        assert geometric_mean([2.0, 0.0, -1.0]) == pytest.approx(2.0)

    def test_geometric_mean_empty(self):
        assert geometric_mean([]) == 0.0

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert arithmetic_mean([]) == 0.0

    @given(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=20))
    def test_geomean_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestSeries:
    def test_rebin_sums_groups(self):
        assert rebin_series([1, 2, 3, 4, 5], 2) == [3, 7, 5]

    def test_rebin_factor_one_identity(self):
        assert rebin_series([1, 2, 3], 1) == [1, 2, 3]

    def test_rebin_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            rebin_series([1], 0)

    def test_cov_of_constant_series_zero(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0
        # The mean of three 0.1s rounds away from 0.1; still exactly 0.
        assert coefficient_of_variation([0.1, 0.1, 0.1]) == 0.0

    def test_cov_flat_less_than_bursty(self):
        flat = [10, 10, 10, 10]
        bursty = [0, 0, 0, 40]
        assert coefficient_of_variation(flat) < \
            coefficient_of_variation(bursty)

    def test_cov_empty(self):
        assert coefficient_of_variation([]) == 0.0


class TestDifferenceCDF:
    def test_identical_frames_all_below_any_threshold(self):
        frame = {(0, 0): 10, (1, 0): 20}
        cdf = per_tile_difference_cdf(frame, frame, [0.0, 0.2])
        assert cdf == [(0.0, 1.0), (0.2, 1.0)]

    def test_changed_tile_counted(self):
        a = {(0, 0): 10, (1, 0): 100}
        b = {(0, 0): 10, (1, 0): 50}
        cdf = per_tile_difference_cdf(a, b, [0.2, 0.6])
        assert cdf[0][1] == pytest.approx(0.5)
        assert cdf[1][1] == pytest.approx(1.0)

    def test_tile_missing_from_one_frame(self):
        cdf = per_tile_difference_cdf({(0, 0): 10}, {}, [0.5, 1.0])
        assert cdf[0][1] == 0.0
        assert cdf[1][1] == 1.0

    def test_empty_frames(self):
        assert per_tile_difference_cdf({}, {}, [0.5]) == [(0.5, 1.0)]


class TestHeatmap:
    def test_tile_matrix_layout(self):
        m = tile_matrix({(1, 0): 5.0, (0, 2): 3.0}, 3, 3)
        assert m[0, 1] == 5.0
        assert m[2, 0] == 3.0
        assert m.sum() == 8.0

    def test_tile_matrix_ignores_out_of_range(self):
        m = tile_matrix({(9, 9): 5.0}, 2, 2)
        assert m.sum() == 0.0

    def test_supertile_matrix_sums_blocks(self):
        m = np.arange(16, dtype=float).reshape(4, 4)
        s = supertile_matrix(m, 2)
        assert s.shape == (2, 2)
        assert s[0, 0] == 0 + 1 + 4 + 5

    def test_supertile_matrix_ragged(self):
        m = np.ones((5, 5))
        s = supertile_matrix(m, 2)
        assert s.shape == (3, 3)
        assert s[2, 2] == 1.0

    def test_render_ascii_shape(self):
        art = render_ascii(np.array([[0.0, 1.0], [0.5, 0.25]]))
        rows = art.split("\n")
        assert len(rows) == 2
        assert all(len(r) == 2 for r in rows)
        assert rows[0][1] == "@"  # the peak gets the darkest shade

    def test_render_ascii_all_zero(self):
        art = render_ascii(np.zeros((2, 2)))
        assert set(art) <= {" ", "\n"}

    def test_hot_cold_summary(self):
        per_tile = {(i, 0): (100.0 if i == 0 else 1.0) for i in range(10)}
        summary = hot_cold_summary(per_tile, hot_fraction=0.1)
        assert summary["hot_tiles"] == 1
        assert summary["hot_share"] == pytest.approx(100 / 109)

    def test_hot_cold_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            hot_cold_summary({(0, 0): 1.0}, hot_fraction=0.0)


class TestReport:
    def test_format_table_aligns(self):
        table = format_table(("a", "bbbb"), [[1, 2], [333, 4]])
        data_lines = table.split("\n")[2:]
        # Second column starts at the same offset on every data row.
        assert data_lines[0].index("2") == data_lines[1].index("4")

    def test_format_table_title(self):
        assert format_table(("x",), [[1]], title="T").startswith("T\n")

    def test_summary_line_greppable(self):
        line = summary_line("speedup", 1.234, paper=1.209)
        assert line.startswith("RESULT speedup:")
        assert "paper=1.209" in line

    def test_experiment_header_contains_claim(self):
        header = experiment_header("Fig. 11", "20.9% speedup")
        assert "Fig. 11" in header and "20.9%" in header
