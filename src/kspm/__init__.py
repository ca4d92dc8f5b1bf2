"""Kadanoff sand pile model: simulation, avalanches, derived dynamics,
wave-pattern analysis, and verification sweeps.

Quick use:

    >>> from kspm import Params, fixed_point
    >>> fixed_point(24, Params(2)).diffs
    (2, 1, 2, 1, 2)
"""

from .core import (
    Configuration,
    DEFAULT_WORK_LIMIT,
    GRAIN_LIMIT,
    HeightProfile,
    LEFTMOST,
    Params,
    RIGHTMOST,
    RandomStrategy,
    fixed_point,
    stabilize,
)
from .avalanche import (
    Avalanche,
    ScanCsvWriter,
    ScanSummary,
    add_grain,
    density_column,
    holes,
    incremental_scan,
    run_avalanche,
)
from .dds import (
    AvgVector,
    ShotVector,
    SpectrumReport,
    XVector,
    avg_step,
    avg_trajectory,
    first_constant_index,
    pile,
    reconstruct_b,
    shot_vector,
    spectrum,
    trajectory_of,
    x_step,
    x_to_avg,
)
from .analysis import (
    SupportReport,
    WaveReport,
    decompose_suffix,
    emergence_index,
    match_theorem1,
    match_theorem2,
    matches_theorem1_at,
    max_plateau,
    support_report,
    wave_report,
)
from . import errors

__all__ = [
    "Avalanche",
    "AvgVector",
    "Configuration",
    "DEFAULT_WORK_LIMIT",
    "GRAIN_LIMIT",
    "HeightProfile",
    "LEFTMOST",
    "Params",
    "RIGHTMOST",
    "RandomStrategy",
    "ScanCsvWriter",
    "ScanSummary",
    "ShotVector",
    "SpectrumReport",
    "SupportReport",
    "WaveReport",
    "XVector",
    "add_grain",
    "avg_step",
    "avg_trajectory",
    "decompose_suffix",
    "density_column",
    "emergence_index",
    "errors",
    "first_constant_index",
    "fixed_point",
    "holes",
    "incremental_scan",
    "match_theorem1",
    "match_theorem2",
    "matches_theorem1_at",
    "max_plateau",
    "pile",
    "reconstruct_b",
    "run_avalanche",
    "shot_vector",
    "spectrum",
    "stabilize",
    "support_report",
    "trajectory_of",
    "wave_report",
    "x_step",
    "x_to_avg",
]

__version__ = "0.1.0"
