"""Numerical tolerances: fixed values in one frozen record.

Every module reads its thresholds from :data:`DEFAULT`; no function takes
a per-call override (``spectral.detect_crossings`` reads ``crossing_gap``,
the gap the pipeline's crossing report uses).
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
    probability_sum: float = 1e-9     # |sum_i p_i - 1|
    zero_probability: float = 1e-12   # below this a probability counts as exactly zero
    pole_current: float = 1e-8        # |j| below this never raises a pole at p = 0
    containment: float = 1e-8         # subspace containment tests
    series_tail: float = 1e-10        # truncation check on the last jump-series term
    crossing_gap: float = 1e-2        # weight gap below which a run reports a crossing
    rk4_limit: float = 2.785          # h * exit rate past which one RK4 step grows a
                                      # state's own mass: |1 + z + ... + z^4/24| > 1, z = -h*rate


DEFAULT = Tolerances()
