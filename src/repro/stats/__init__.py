"""Statistics, heatmaps and report formatting."""

from .collector import (arithmetic_mean, coefficient_of_variation,
                        geometric_mean, per_tile_difference_cdf,
                        rebin_series)
from .heatmap import (hot_cold_summary, render_ascii, supertile_matrix,
                      tile_matrix)
from .report import experiment_header, format_table, summary_line

__all__ = [
    "geometric_mean",
    "arithmetic_mean",
    "rebin_series",
    "coefficient_of_variation",
    "per_tile_difference_cdf",
    "tile_matrix",
    "supertile_matrix",
    "render_ascii",
    "hot_cold_summary",
    "format_table",
    "experiment_header",
    "summary_line",
]
