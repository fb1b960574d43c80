"""Covariance, skew information, and uncertainty-inequality verification
for finite-dimensional quantum states.

The package computes symmetrized covariance, the wyd-family skew
informations, and metric-adjusted correlations for faithful density
matrices, and verifies the inequality

    var_a * var_b - cov^2  >=  info_a * info_b - corr^2

(together with the classical commutator bound) along three mutually
checking routes: direct traces, modular correlation kernels, and an exact
atomic transcription of the underlying modular-theory identity.

The package root exports the entry points only; every other name is
importable from its own module (``skewcal.linalg``, ``skewcal.monotone``,
``skewcal.qinfo``, ``skewcal.gns``, ``skewcal.harness``).
"""

from .monotone import MonotoneFunction, from_key, harmonic, sld, validate_catalog_entry, wyd
from .linalg import (
    DensityMatrix,
    HermitianMatrix,
    load_density,
    load_hermitian,
    random_density,
    random_hermitian,
    save_matrix,
)
from .qinfo import UncertaintyReport, eigenbasis_terms, evaluate_inequalities
from .gns import GnsModel, audit_G_equals_H
from .harness import (
    SweepConfig,
    SweepSummary,
    check_instance,
    emit_gap_histogram,
    read_records,
    run_sweep,
    summarize_records,
)

__version__ = "0.1.0"

__all__ = [
    # matrices and sampling
    "DensityMatrix",
    "HermitianMatrix",
    "load_density",
    "load_hermitian",
    "save_matrix",
    "random_density",
    "random_hermitian",
    # the catalog
    "MonotoneFunction",
    "from_key",
    "wyd",
    "sld",
    "harmonic",
    "validate_catalog_entry",
    # single-instance checks
    "evaluate_inequalities",
    "UncertaintyReport",
    "GnsModel",
    "eigenbasis_terms",
    "audit_G_equals_H",
    # sweeps and records
    "SweepConfig",
    "SweepSummary",
    "run_sweep",
    "check_instance",
    "read_records",
    "summarize_records",
    "emit_gap_histogram",
]
