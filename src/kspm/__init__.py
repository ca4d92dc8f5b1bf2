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
    Params,
    fixed_point,
    stabilize,
)
from .avalanche import Avalanche, ScanCsvWriter, ScanSummary, incremental_scan, steps
from ._engine import firing_order
from .dds import (
    AvgVector,
    ShotVector,
    SpectrumReport,
    avg_step,
    avg_trajectory,
    first_constant_index,
    pile,
    reconstruct_b,
    shot_vector,
    spectrum,
    trajectory_of,
)
from .analysis import (
    WaveReport,
    decompose_suffix,
    emergence_index,
    match_theorem1,
    match_theorem2,
    matches_theorem1_at,
    max_plateau,
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
    "Params",
    "ScanCsvWriter",
    "ScanSummary",
    "ShotVector",
    "SpectrumReport",
    "WaveReport",
    "avg_step",
    "avg_trajectory",
    "decompose_suffix",
    "emergence_index",
    "errors",
    "firing_order",
    "first_constant_index",
    "fixed_point",
    "incremental_scan",
    "match_theorem1",
    "match_theorem2",
    "matches_theorem1_at",
    "max_plateau",
    "pile",
    "reconstruct_b",
    "shot_vector",
    "spectrum",
    "stabilize",
    "steps",
    "trajectory_of",
    "wave_report",
]

__version__ = "0.1.0"
