"""End-to-end orchestration: evolve, track, currents, rates, kernels, paths.

The stages mirror the library modules and every handoff is an explicit
array, so tests can run any stage in isolation.  Currents and rates are
always formed on the joint state space of the full system; subsystem
statistics are obtained only by marginalizing sampled ensembles, never by
summing currents.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import io as mdio
from .currents import (CurrentMatrix, continuity_residual,
                       generalized_schrodinger_current, minimal_flow_current,
                       static_schrodinger_current)
from .errors import ModalDynError, PoleInInterval, TruncationNotConverged
from .feller import (chapman_kolmogorov_residual, feller_minimal,
                     forward_ode_kernel, honesty_deficit)
from .hilbert import evolve_on_grid, partial_trace
from .kinetics import (RateMatrix, RateTrajectory, bell_rates, classify_singularities,
                       general_rates, master_residual, pole_free_rows)
from .sampler import (JumpProcess, PathEnsemble, ensemble_marginals,
                      low_probability_occupancy, total_variation)
from .scenario import Scenario
from .spectral import (_nearest_node, _runs, _stencil, derivative_family,
                       detect_crossings, track)

__all__ = ["JointFamily", "PipelineResult", "RunReport", "compute_currents",
           "compute_joint_family", "compute_rates", "pdot_target", "run"]


@dataclass(frozen=True)
class JointFamily:
    """Tracked joint-state data on the scenario grid; every joint projector is rank-1."""

    scenario: Scenario
    grid: np.ndarray                 # (n,)
    psi: np.ndarray                  # (n, dim)
    factor_trajectories: tuple      # per-factor SpectralTrajectory
    states: tuple                    # joint labels, flat order
    vectors: np.ndarray              # (n, D, dim) projector directions
    rotation: np.ndarray             # (n, D, dim) Pdot_a psi at each node
    probabilities: np.ndarray        # (n, D)
    pdot: np.ndarray                 # (n, D) finite differences


def compute_joint_family(scenario: Scenario) -> JointFamily:
    """The tracked joint family of a validated scenario (``run`` validates)."""
    space = scenario.space
    grid = scenario.grid()
    psi = evolve_on_grid(scenario.initial_state, scenario.hamiltonian, grid)

    pure = psi[:, :, None] * psi[:, None, :].conj()             # (n, dim, dim)
    trajectories = [track(partial_trace(pure, space, k), grid)
                    for k in range(space.n_factors)]

    states = space.joint_indices()
    # Joint vectors: kron of the per-factor tracked directions, per node.
    joint = trajectories[0].vectors                             # (n, d0, dim0)
    for traj in trajectories[1:]:
        joint = np.einsum("nax,nby->nabxy", joint, traj.vectors)
        n, a, b, x, y = joint.shape
        joint = joint.reshape(n, a * b, x * y)
    amps = np.einsum("ndx,nx->nd", joint.conj(), psi)

    # Pdot_a psi_k = sum_j w_kj (P_a(i_kj) - P_a(k)) psi_k: the stencil of
    # derivative_family applied to the projectors, without forming them.
    idx, w = _stencil(grid)
    near = joint[idx]                                           # (n, 2, D, dim)
    near_amps = np.einsum("njdx,nx->njd", near.conj(), psi)
    rotation = np.einsum("nj,njdx->ndx", w, near * near_amps[..., None]) \
        - w.sum(axis=1)[:, None, None] * (joint * amps[..., None])

    probabilities = np.clip(np.abs(amps) ** 2, 0.0, 1.0)
    pdot = derivative_family(probabilities, grid)
    return JointFamily(
        scenario=scenario, grid=grid, psi=psi,
        factor_trajectories=tuple(trajectories), states=tuple(states),
        vectors=joint, rotation=rotation,
        probabilities=probabilities, pdot=pdot,
    )


def compute_currents(family: JointFamily, kind: str | None = None,
                     extra_term: str | None = None) -> CurrentMatrix:
    """The currents at every grid node, one stacked record."""
    kind = kind or family.scenario.current
    extra_term = extra_term or family.scenario.extra_term
    h = np.asarray(family.scenario.hamiltonian, dtype=complex)
    if kind == "minimal_flow":
        # Finite differences of clipped probabilities can carry ~1e-13 imbalance.
        pdot = family.pdot
        return minimal_flow_current(pdot - pdot.mean(axis=1, keepdims=True))
    if kind == "static_schrodinger":
        return static_schrodinger_current(family.psi, h, family.vectors)
    if kind == "generalized_schrodinger":
        return generalized_schrodinger_current(family.psi, h, family.vectors,
                                               family.rotation,
                                               extra_term=extra_term)
    raise ValueError(f"unknown current kind {kind!r}")


def pdot_target(family: JointFamily, kind: str) -> np.ndarray:
    """The probability derivative each current constructor is built against.

    The static constructor targets the commutator part alone (it cannot see
    projector rotation); the other constructors target the full finite
    difference.
    """
    if kind != "static_schrodinger":
        return family.pdot
    h = np.asarray(family.scenario.hamiltonian, dtype=complex)
    v = family.vectors
    a = v * np.einsum("ndx,nx->nd", v.conj(), family.psi)[..., None]
    hpsi = family.psi @ h.T
    vals = np.einsum("ndx,nx->nd", a.conj(), hpsi)
    return 2.0 * vals.imag


def compute_rates(currents: CurrentMatrix, probabilities, choice: str,
                  general_offset: float = 0.0) -> RateMatrix:
    """The rates at every grid node, one stacked record."""
    if choice in ("bell", "bell_note9"):
        return bell_rates(currents, probabilities)
    if choice == "general":
        return general_rates(currents, probabilities, free_choice=general_offset)
    raise ValueError(f"unknown rate choice {choice!r}")


@dataclass
class RunReport:
    """Per-stage diagnostics of one pipeline run."""

    scenario_name: str
    current: str
    rate_choice: str
    continuity_residual: float
    master_residual: float
    master_rows_masked: int
    crossings: list = field(default_factory=list)
    tracking_margins: list = field(default_factory=list)
    singularities: list = field(default_factory=list)
    pole_nodes: int = 0
    kernel_window: tuple[float, float] | None = None
    chapman_residual: float | None = None
    honesty_deficit_max: float | None = None
    kernel_cross_check: float | None = None
    kernel_terms: int | None = None
    kernel_note: str | None = None
    total_variation: dict = field(default_factory=dict)
    max_total_variation: float | None = None
    deterministic: bool | None = None
    mean_jumps: float | None = None
    low_probability_occupancy: float | None = None
    n_paths: int = 0

    def failures(self, thresholds) -> list[str]:
        out = []
        if self.continuity_residual > thresholds.continuity:
            out.append(f"continuity residual {self.continuity_residual:.3e} "
                       f"> {thresholds.continuity}")
        if self.master_residual > thresholds.master:
            out.append(f"master residual {self.master_residual:.3e} "
                       f"> {thresholds.master}")
        if self.chapman_residual is not None and \
                self.chapman_residual > thresholds.chapman:
            out.append(f"chapman residual {self.chapman_residual:.3e} "
                       f"> {thresholds.chapman}")
        if self.honesty_deficit_max is not None and \
                abs(self.honesty_deficit_max) > thresholds.honesty:
            out.append(f"honesty deficit {self.honesty_deficit_max:.3e} "
                       f"> {thresholds.honesty}")
        if self.max_total_variation is not None and \
                self.max_total_variation > thresholds.total_variation:
            out.append(f"total variation {self.max_total_variation:.3e} "
                       f"> {thresholds.total_variation}")
        return out

    def to_dict(self) -> dict:
        out = asdict(self)
        out["scenario"] = out.pop("scenario_name")
        return out


@dataclass
class PipelineResult:
    scenario: Scenario
    family: JointFamily
    currents: CurrentMatrix
    rate_matrices: RateMatrix
    rate_trajectory: RateTrajectory
    paths: PathEnsemble
    stats: object
    report: RunReport
    kernels: tuple | None = None


class _Stage:
    """Re-raise stage failures with the failing stage's name attached."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, (ValueError, ArithmeticError, ModalDynError)):
            raise type(exc)(f"[stage: {self.name}] {exc}") from exc
        return False


def run(scenario: Scenario, out_dir=None, report_only: bool = False,
        n_paths: int | None = None, master_seed: int | None = None,
        current: str | None = None) -> PipelineResult:
    """Execute the full pipeline for one scenario.

    ``n_paths``, ``master_seed`` and ``current`` override the scenario
    record; ``report_only`` skips exports.  Returns the full result object
    whose ``report`` carries every diagnostic.
    """
    if current is not None:
        scenario = replace(scenario, current=current)
    if n_paths is not None:
        scenario = replace(scenario, ensemble=replace(scenario.ensemble,
                                                      n_paths=int(n_paths)))
    if master_seed is not None:
        scenario = replace(scenario, ensemble=replace(scenario.ensemble,
                                                      master_seed=int(master_seed)))
    scenario.validate()

    with _Stage("spectral tracking"):
        family = compute_joint_family(scenario)
    grid = family.grid
    with _Stage("currents"):
        currents = compute_currents(family)
        target = pdot_target(family, scenario.current)
    cont_res = continuity_residual(currents, target)

    with _Stage("rates"):
        rate_matrices = compute_rates(currents, family.probabilities,
                                      scenario.rate_choice,
                                      scenario.general_rate_offset)
    rate_traj = RateTrajectory(grid, rate_matrices)
    pole_nodes = int(rate_traj.pole_mask.any(axis=(1, 2)).sum())

    rows = pole_free_rows(rate_matrices)
    masked = int((~rows).sum(axis=1).max())
    master_res = master_residual(rate_matrices, family.probabilities, target, rows=rows)

    report = RunReport(
        scenario_name=scenario.name, current=scenario.current,
        rate_choice=scenario.rate_choice,
        continuity_residual=float(cont_res), master_residual=float(master_res),
        master_rows_masked=masked, pole_nodes=pole_nodes,
    )
    report.crossings = [
        {"factor": fk, "t_start": ev.t_start, "t_end": ev.t_end,
         "labels": list(ev.labels), "min_gap": ev.min_gap, "t_min": ev.t_min}
        for fk, traj in enumerate(family.factor_trajectories)
        for ev in detect_crossings(traj, scenario.thresholds.crossing_gap)
    ]
    report.tracking_margins = [
        {"factor": fk, "min_overlap": traj.min_overlap, "min_gap": traj.min_gap}
        for fk, traj in enumerate(family.factor_trajectories)
    ]
    singularities = classify_singularities(family.probabilities, grid, rate_matrices)
    report.singularities = [
        {"time": ev.time, "state": ev.state, "kind": ev.kind,
         "divergent": ev.divergent, "t_start": ev.t_start, "t_end": ev.t_end}
        for ev in singularities
    ]

    kernels = None
    windows = _kernel_windows(rate_traj, singularities)
    if windows:
        a, b = max(windows, key=lambda w: w[1] - w[0])
        if b - a >= 10:
            s, t, mid = (float(grid[k]) for k in (a, b, (a + b) // 2))
            report.kernel_window = (s, t)
            try:
                series = feller_minimal(rate_traj, s, t)
                ode = forward_ode_kernel(rate_traj, s, t)
                kernels = (series, ode)
                report.kernel_terms = series.n_terms
                report.kernel_cross_check = float(np.abs(series.matrix - ode.matrix).max())
                report.honesty_deficit_max = float(np.abs(honesty_deficit(series)).max())
                report.chapman_residual = chapman_kolmogorov_residual(
                    ode, forward_ode_kernel(rate_traj, s, mid),
                    forward_ode_kernel(rate_traj, mid, t))
            except (PoleInInterval, TruncationNotConverged, ValueError) as exc:
                report.kernel_note = f"kernel stage skipped: {exc}"
        else:
            report.kernel_note = "no pole-free window long enough for kernels"
    else:
        report.kernel_note = "no pole-free window: kernels not constructed"

    stats = None
    with _Stage("sampling"):
        process = JumpProcess(rate_traj, family.probabilities[0],
                              family.states,
                              currents=currents.full(),
                              pole_policy=scenario.pole_policy,
                              master_seed=scenario.ensemble.master_seed)
        paths = process.ensemble(scenario.ensemble.n_paths)
    nodes = _nearest_node(grid, np.asarray(scenario.ensemble.query_times, dtype=float))
    if len(nodes):
        stats = ensemble_marginals(paths, grid[nodes], family.states)
        report.total_variation = {
            repr(float(grid[node])): total_variation(freqs, family.probabilities[node])
            for freqs, node in zip(stats.frequencies, nodes)}
        report.max_total_variation = max(report.total_variation.values())
    report.deterministic = not paths.jump_counts.any()
    report.mean_jumps = float(paths.jump_counts.mean())
    report.low_probability_occupancy = low_probability_occupancy(
        paths, grid, family.probabilities, family.states)
    report.n_paths = len(paths)

    result = PipelineResult(
        scenario=scenario, family=family, currents=currents,
        rate_matrices=rate_matrices, rate_trajectory=rate_traj,
        paths=paths, stats=stats, report=report, kernels=kernels,
    )
    if out_dir is not None and not report_only:
        _export(result, out_dir, nodes)
    return result


def _kernel_windows(rate_traj, singularities):
    """Windows on which finite-time kernels exist, as node-index pairs (a, b).

    Kernels are constructed only between singularities: nodes carrying pole
    flags and nodes inside a divergent probability-zero run are excluded,
    with a small pad so the window never starts on an exploding rate.
    """
    grid = rate_traj.grid
    n = len(grid)
    bad = rate_traj.pole_mask.any(axis=(1, 2)).copy()
    pad = max(2, n // 200)
    for ev in singularities:
        if not ev.divergent:
            continue
        lo = int(np.searchsorted(grid, ev.t_start)) - pad
        hi = int(np.searchsorted(grid, ev.t_end, side="right")) + pad
        bad[max(lo, 0):min(hi, n)] = True
    return [(start, end) for start, end in _runs(~bad) if end > start]


def _export(result: PipelineResult, out_dir, nodes):
    from pathlib import Path
    from .scenario import scenario_to_dict

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sc = result.scenario
    family = result.family
    sc_dict = scenario_to_dict(sc)
    mdio.write_manifest(out / "manifest.json", sc_dict, sc.ensemble.master_seed)
    mdio.write_json(out / "scenario.json", sc_dict)
    mdio.write_state_space_json(out / "state_space.json", family.states,
                                family.probabilities[0])
    for k, traj in enumerate(family.factor_trajectories):
        mdio.write_trajectory_csv(out / f"trajectory_factor{k}.csv",
                                  out / f"trajectory_factor{k}_projectors.json",
                                  traj, f"f{k}")
    mdio.write_currents_csv(out / "currents.csv", family.grid, result.currents)
    mdio.write_rates_csv(out / "rates.csv", family.grid, result.rate_matrices)
    if result.kernels is not None:
        series, _ode = result.kernels
        mdio.write_kernel_json(out / "kernel.json", series, honesty_deficit(series))
    mdio.write_paths_jsonl(out / "paths.jsonl", result.paths)
    if result.stats is not None:
        mdio.write_stats_csv(out / "stats.csv", result.stats,
                             family.probabilities[nodes])
    mdio.write_report_json(out / "report.json", result.report.to_dict())
