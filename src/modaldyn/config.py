"""Numerical tolerances: fixed values in one frozen record.

Every module reads its thresholds from :data:`DEFAULT`; no function takes
a per-call override.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by all modules."""

    hermiticity: float = 1e-10        # max |A - A^dag| entry for Hermitian inputs
    unit_norm: float = 1e-10          # ket normalization slack
    degeneracy: float = 1e-8          # eigenvalue gap below which a cluster is degenerate
    projector_orthogonality: float = 1e-8
    identity_sum: float = 1e-8        # |sum_i P_i - 1| for complete projector families
    idempotency: float = 1e-8
    overlap_threshold: float = 0.5    # minimum continuation overlap per tracked label;
                                      # at most 1/2, which spectral.track's fast path needs
    derivative_balance: float = 1e-6  # max |sum_i Pdot_i| entry
    pdot_balance: float = 1e-10       # |sum_j pdot_j| for balanced derivative vectors
    probability_sum: float = 1e-9     # |sum_i p_i - 1|
    zero_probability: float = 1e-12   # below this a probability counts as exactly zero
    pole_current: float = 1e-8        # |j| below this never raises a pole at p = 0
    containment: float = 1e-8         # subspace containment tests
    series_tail: float = 1e-10        # truncation check on the last jump-series term


DEFAULT = Tolerances()
