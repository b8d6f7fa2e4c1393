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
from .currents import (CurrentMatrix, _blockwise, continuity_residual, current_matrix,
                       joint_directions)
from .config import DEFAULT
from .errors import ModalDynError, TruncationNotConverged
from .feller import (chapman_kolmogorov_residual, feller_minimal,
                     forward_ode_kernel, honesty_deficit)
from .hilbert import evolve_on_grid, partial_trace
from .kinetics import (RateMatrix, RateTrajectory, classify_singularities, master_residual,
                       pole_free_rows, rate_matrix)
from .sampler import (JumpProcess, PathEnsemble, ensemble_marginals,
                      low_probability_occupancy, total_variation)
from .scenario import Scenario
from .spectral import (_nearest_node, _runs, connections, derivative_family,
                       detect_crossings, track)

__all__ = ["JointFamily", "PipelineResult", "RunReport", "compute_currents",
           "compute_joint_family", "compute_rates", "pdot_target", "run"]


@dataclass(frozen=True)
class JointFamily:
    """Tracked joint-state data on the scenario grid; each joint projector is
    rank-1, the kron of one tracked direction per factor."""

    scenario: Scenario
    grid: np.ndarray                 # (n,)
    psi: np.ndarray                  # (n, dim)
    factor_trajectories: tuple      # per-factor SpectralTrajectory
    states: tuple                    # joint labels, flat order
    connections: tuple               # per factor (n, d_k, d_k), <u_b|d/dt u_a>
    probabilities: np.ndarray        # (n, D)


def compute_joint_family(scenario: Scenario) -> JointFamily:
    """The tracked joint family of a validated scenario (``run`` validates)."""
    space = scenario.space
    grid = scenario.grid()
    psi = evolve_on_grid(scenario.initial_state, scenario.hamiltonian, grid)
    n, dim = psi.shape

    # The per-node stages run over node blocks (see _blockwise), so no
    # (n, dim, dim) temporary exists.  Tracking is sequential over the grid.
    # rho_dot_k = -i Tr_not_k [H, |psi><psi|] = -i (X - X^dag) with
    # X = Tr_not_k |H psi><psi|, contracted from the kets factor by factor.
    h, dims = np.asarray(scenario.hamiltonian, dtype=complex), space.factor_dims

    def reduce(nodes):
        here = psi[nodes]
        pure = here[:, :, None] * here.conj()[:, None, :]
        moved = np.einsum("xy,my->mx", h, here)     # H psi; unlike @, the same bits per block
        out = []
        for k, d in enumerate(dims):
            split = (len(here), int(np.prod(dims[:k])), d, -1)
            x = np.einsum("mlyr,mlzr->myz", moved.reshape(split), here.conj().reshape(split))
            out += [partial_trace(pure, space, k), -1j * (x - x.conj().swapaxes(1, 2))]
        return tuple(out)

    reduced = _blockwise(reduce, n, dim)
    trajectories = [track(rho, grid) for rho in reduced[::2]]
    conns = tuple(connections(traj, rho_dot) for traj, rho_dot in zip(trajectories, reduced[1::2]))

    def amplitudes(nodes):
        joint = joint_directions([traj.vectors[nodes] for traj in trajectories])
        return (np.einsum("ndx,nx->nd", joint.conj(), psi[nodes]),)

    (amps,) = _blockwise(amplitudes, n, dim)
    return JointFamily(
        scenario=scenario, grid=grid, psi=psi,
        factor_trajectories=tuple(trajectories), states=tuple(space.joint_indices()),
        connections=conns, probabilities=np.clip(np.abs(amps) ** 2, 0.0, 1.0),
    )


def compute_currents(family: JointFamily, kind: str | None = None) -> CurrentMatrix:
    """The currents at every grid node, one stacked record (``current_matrix``
    on the family's arrays, of the scenario's kind by default)."""
    return current_matrix(kind or family.scenario.current, family.psi,
                          family.scenario.hamiltonian,
                          [traj.vectors for traj in family.factor_trajectories],
                          family.connections)


def pdot_target(family: JointFamily) -> np.ndarray:
    """The Born derivative ``(n, D)``, the finite difference of the joint
    probabilities on the grid: the continuity target every current is
    checked against, whatever its kind, and from which none is built."""
    return derivative_family(family.probabilities, family.grid)


def compute_rates(currents: CurrentMatrix, probabilities,
                  general_offset: float = 0.0) -> RateMatrix:
    """The rates at every grid node of an ``(n, D, D)`` current, one stacked
    record (``rate_matrix`` of the family member c = ``general_offset``)."""
    p = np.asarray(probabilities, dtype=float)
    if currents.matrix.ndim != 3 or p.shape != currents.matrix.shape[:-1]:
        raise ValueError(f"expected an (n, D, D) current and (n, D) probabilities, "
                         f"got {currents.matrix.shape} and {p.shape}")
    return rate_matrix(currents, p, general_offset)


@dataclass
class RunReport:
    """Per-stage diagnostics of one pipeline run."""

    scenario_name: str
    current: str
    general_rate_offset: float
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
    max_jumps: int | None = None
    forced_jumps: int | None = None
    pole_crossings: int | None = None
    relays: int | None = None
    low_probability_occupancy: float | None = None
    n_paths: int = 0

    def failures(self, thresholds) -> list[str]:
        """One message per diagnostic above its bound in ``thresholds``."""
        checks = (
            ("continuity residual", self.continuity_residual, thresholds.continuity),
            ("master residual", self.master_residual, thresholds.master),
            ("chapman residual", self.chapman_residual, thresholds.chapman),
            ("honesty deficit", self.honesty_deficit_max, thresholds.honesty),
            ("total variation", self.max_total_variation, thresholds.total_variation),
        )
        return [f"{label} {value:.3e} > {bound}" for label, value, bound in checks
                if value is not None and not abs(value) <= bound]

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
        target = pdot_target(family)
    cont_res = continuity_residual(currents, target)

    with _Stage("rates"):
        rate_matrices = compute_rates(currents, family.probabilities,
                                      scenario.general_rate_offset)
    rate_traj = RateTrajectory(grid, rate_matrices)
    pole_nodes = int(rate_traj.pole_mask.any(axis=(1, 2)).sum())

    # Master holds the rates to the current's own divergence: the rate layer alone.
    rows = pole_free_rows(rate_matrices)
    masked = int((~rows).sum(axis=1).max())
    master_res = master_residual(rate_matrices, family.probabilities,
                                 currents.matrix.sum(axis=-1), rows=rows)

    report = RunReport(
        scenario_name=scenario.name, current=scenario.current,
        general_rate_offset=scenario.general_rate_offset,
        continuity_residual=float(cont_res), master_residual=float(master_res),
        master_rows_masked=masked, pole_nodes=pole_nodes,
    )
    report.crossings = [{"factor": fk, **asdict(ev)}
                        for fk, traj in enumerate(family.factor_trajectories)
                        for ev in detect_crossings(traj)]
    report.tracking_margins = [
        {"factor": fk, "min_overlap": traj.min_overlap, "min_gap": traj.min_gap}
        for fk, traj in enumerate(family.factor_trajectories)
    ]
    singularities = classify_singularities(family.probabilities, grid, rate_matrices)
    report.singularities = [asdict(ev) for ev in singularities]

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
            except (TruncationNotConverged, ValueError) as exc:
                report.kernel_note = f"kernel stage skipped: {exc}"
        else:
            report.kernel_note = "no pole-free window long enough for kernels"
    else:
        report.kernel_note = "no pole-free window: kernels not constructed"

    stats = None
    with _Stage("sampling"):
        process = JumpProcess(rate_traj, family.probabilities[0], family.states,
                              currents=currents, master_seed=scenario.ensemble.master_seed)
        paths = process.ensemble(scenario.ensemble.n_paths)
    nodes = _nearest_node(grid, np.asarray(scenario.ensemble.query_times, dtype=float))
    if len(nodes):
        stats = ensemble_marginals(paths, grid[nodes])
        report.total_variation = {
            repr(float(grid[node])): total_variation(freqs, family.probabilities[node])
            for freqs, node in zip(stats.frequencies, nodes)}
        report.max_total_variation = max(report.total_variation.values())
    report.deterministic = not paths.jump_counts.any()
    report.mean_jumps = float(paths.jump_counts.mean())
    report.max_jumps = int(paths.jump_counts.max())
    report.forced_jumps, report.pole_crossings, report.relays = (
        paths.forced_jumps, paths.pole_crossings, paths.relays)
    report.low_probability_occupancy = low_probability_occupancy(
        paths, grid, family.probabilities)
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
    with a small pad so the window never starts on an exploding rate, and
    nodes where one RK4 step would grow a state's own mass (``rk4_limit``).
    """
    grid = rate_traj.grid
    n = len(grid)
    h_exit = np.diff(grid).max() * -np.einsum("nii->ni", rate_traj.matrices).min(axis=1)
    bad = rate_traj.pole_mask.any(axis=(1, 2)) | (h_exit > DEFAULT.rk4_limit)
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
