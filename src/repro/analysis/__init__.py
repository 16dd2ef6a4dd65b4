"""Result analysis: difference degrees and run-to-run variation (§V-C)."""

from .difference import (
    average_difference_degree,
    cross_difference_degree,
    difference_degree,
    identical_prefix_length,
    ranking,
)
from .errors import ErrorReport, epsilon_error_study, error_report
from .explain import (
    DivergenceReport,
    FirstDivergence,
    explain_trace_files,
    explain_traces,
    first_divergence,
    taint_forward,
)
from .variation import ConfigurationRuns, VariationStudy, collect_rankings

__all__ = [
    "average_difference_degree",
    "cross_difference_degree",
    "difference_degree",
    "identical_prefix_length",
    "ranking",
    "ConfigurationRuns",
    "VariationStudy",
    "collect_rankings",
    "ErrorReport",
    "error_report",
    "epsilon_error_study",
    "DivergenceReport",
    "FirstDivergence",
    "explain_trace_files",
    "explain_traces",
    "first_divergence",
    "taint_forward",
]
