"""Workloads: synthetic curated databases and the paper's update patterns.

The paper evaluated CPDB with random update sequences over a 27.3 MB copy
of MiMI (protein interactions, in Timber) fed from 6 MB of OrganelleDB
(protein localization, in MySQL).  We cannot redistribute those datasets,
so :mod:`repro.workloads.synth` generates seeded synthetic stand-ins with
the same hierarchical shape; :mod:`repro.workloads.patterns` implements
the update patterns of Table 2 and the deletion patterns of Table 3; and
:mod:`repro.workloads.runner` drives an editor through a pattern while
collecting the measurements the figures report.
:mod:`repro.workloads.concurrent` (MVCC schedules and the
snapshot-isolation history checker) sits on the storage query layer and
is imported from its own module.
"""

from .patterns import DELETION_POLICIES, UPDATE_PATTERNS, PatternGenerator, generate_pattern
from .runner import RunResult, build_curation_setup, generate_script, run_pattern, run_updates
from .synth import mimi_like_tree, organelledb_like

__all__ = [
    "organelledb_like",
    "mimi_like_tree",
    "PatternGenerator",
    "generate_pattern",
    "UPDATE_PATTERNS",
    "DELETION_POLICIES",
    "RunResult",
    "run_pattern",
    "run_updates",
    "generate_script",
    "build_curation_setup",
]
