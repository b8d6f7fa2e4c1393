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
from .config import DEFAULT, Tolerances
from .currents import (CurrentMatrix, continuity_residual,
                       generalized_schrodinger_current, minimal_flow_current,
                       static_schrodinger_current)
from .errors import ModalDynError, PoleInInterval, TruncationNotConverged
from .feller import (chapman_kolmogorov_residual, feller_minimal,
                     forward_ode_kernel, honesty_deficit)
from .hilbert import evolve_on_grid, partial_trace
from .kinetics import (RateTrajectory, bell_rates, classify_singularities,
                       general_rates, master_residual, pole_free_rows)
from .sampler import (JumpProcess, ensemble_marginals, low_probability_occupancy,
                      total_variation)
from .scenario import Scenario
from .spectral import _runs, derivative_family, detect_crossings, track

__all__ = ["JointFamily", "PipelineResult", "RunReport", "compute_currents",
           "compute_joint_family", "compute_rates", "pdot_target", "run"]


@dataclass(frozen=True)
class JointFamily:
    """Tracked joint-state data on the scenario grid."""

    scenario: Scenario
    grid: np.ndarray                 # (n,)
    psi: np.ndarray                  # (n, dim)
    factor_trajectories: tuple      # per-factor SpectralTrajectory
    states: tuple                    # joint labels, flat order
    projectors: np.ndarray           # (n, D, dim, dim)
    projector_derivatives: np.ndarray
    probabilities: np.ndarray        # (n, D)
    pdot: np.ndarray                 # (n, D) finite differences


def compute_joint_family(scenario: Scenario, tol: Tolerances = DEFAULT) -> JointFamily:
    scenario.validate()
    space = scenario.space
    grid = scenario.grid()
    psi = evolve_on_grid(scenario.initial_state, scenario.hamiltonian, grid, tol)

    trajectories = []
    for k in range(space.n_factors):
        reduced = [partial_trace(np.outer(psi[m], psi[m].conj()), space, k)
                   for m in range(len(grid))]
        trajectories.append(track(reduced, grid, tol=tol))

    states = space.joint_indices()
    # Joint vectors: kron of the per-factor tracked directions, per node.
    joint = trajectories[0].vectors                             # (n, d0, dim0)
    for traj in trajectories[1:]:
        joint = np.einsum("nax,nby->nabxy", joint, traj.vectors)
        n, a, b, x, y = joint.shape
        joint = joint.reshape(n, a * b, x * y)
    projectors = np.einsum("ndx,ndy->ndxy", joint, joint.conj())
    pdotfam = derivative_family(projectors, grid)

    amps = np.einsum("ndx,nx->nd", joint.conj(), psi)
    probabilities = np.clip(np.abs(amps) ** 2, 0.0, 1.0)
    pdot = derivative_family(probabilities, grid)
    return JointFamily(
        scenario=scenario, grid=grid, psi=psi,
        factor_trajectories=tuple(trajectories), states=tuple(states),
        projectors=projectors, projector_derivatives=pdotfam,
        probabilities=probabilities, pdot=pdot,
    )


def compute_currents(family: JointFamily, kind: str | None = None,
                     extra_term: str | None = None,
                     tol: Tolerances = DEFAULT) -> list[CurrentMatrix]:
    kind = kind or family.scenario.current
    extra_term = extra_term or family.scenario.extra_term
    h = np.asarray(family.scenario.hamiltonian, dtype=complex)
    out = []
    for k in range(len(family.grid)):
        if kind == "minimal_flow":
            cm = minimal_flow_current(_balanced(family.pdot[k]), tol=tol)
        elif kind == "static_schrodinger":
            cm = static_schrodinger_current(family.psi[k], h,
                                            family.projectors[k], tol=tol)
        elif kind == "generalized_schrodinger":
            cm = generalized_schrodinger_current(
                family.psi[k], h, family.projectors[k],
                family.projector_derivatives[k], extra_term=extra_term, tol=tol)
        else:
            raise ValueError(f"unknown current kind {kind!r}")
        out.append(cm)
    return out


def _balanced(pdot: np.ndarray) -> np.ndarray:
    # Finite differences of clipped probabilities can carry ~1e-13 imbalance.
    return pdot - pdot.sum() / len(pdot)


def pdot_target(family: JointFamily, kind: str) -> np.ndarray:
    """The probability derivative each current constructor is built against.

    The static constructor targets the commutator part alone (it cannot see
    projector rotation); the other constructors target the full finite
    difference.
    """
    if kind != "static_schrodinger":
        return family.pdot
    h = np.asarray(family.scenario.hamiltonian, dtype=complex)
    a = np.einsum("ndxy,ny->ndx", family.projectors, family.psi)
    hpsi = family.psi @ h.T
    vals = np.einsum("ndx,nx->nd", a.conj(), hpsi)
    return 2.0 * vals.imag


def compute_rates(currents, probabilities, choice: str,
                  general_offset: float = 0.0, tol: Tolerances = DEFAULT):
    out = []
    for cm, p in zip(currents, probabilities):
        if choice in ("bell", "bell_note9"):
            out.append(bell_rates(cm, p, tol=tol))
        elif choice == "general":
            out.append(general_rates(cm, p, free_choice=general_offset, tol=tol))
        else:
            raise ValueError(f"unknown rate choice {choice!r}")
    return out


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
    singularities: list = field(default_factory=list)
    pole_nodes: int = 0
    kernel_window: tuple[float, float] | None = None
    chapman_residual: float | None = None
    honesty_deficit_max: float | None = None
    kernel_cross_check: float | None = None
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

    def passed(self, thresholds) -> bool:
        return not self.failures(thresholds)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["scenario"] = out.pop("scenario_name")
        return out


@dataclass
class PipelineResult:
    scenario: Scenario
    family: JointFamily
    currents: list
    rate_matrices: list
    rate_trajectory: RateTrajectory
    paths: list
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
        current: str | None = None, sample: bool = True,
        tol: Tolerances = DEFAULT) -> PipelineResult:
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
        family = compute_joint_family(scenario, tol)
    grid = family.grid
    with _Stage("currents"):
        currents = compute_currents(family, tol=tol)
        target = pdot_target(family, scenario.current)
    cont_res = max(continuity_residual(cm, target[k])
                   for k, cm in enumerate(currents))

    with _Stage("rates"):
        rate_matrices = compute_rates(currents, family.probabilities,
                                      scenario.rate_choice,
                                      scenario.general_rate_offset, tol)
    rate_traj = RateTrajectory(grid, rate_matrices)
    pole_nodes = int(rate_traj.pole_mask.any(axis=(1, 2)).sum())

    masked = 0
    master_res = 0.0
    for k, rm in enumerate(rate_matrices):
        rows = pole_free_rows(rm)
        masked = max(masked, int((~rows).sum()))
        master_res = max(master_res, master_residual(rm, family.probabilities[k],
                                                     target[k], rows=rows))

    crossings = []
    for fk, traj in enumerate(family.factor_trajectories):
        rep = detect_crossings(traj, scenario.thresholds.crossing_gap)
        for ev in rep.events:
            crossings.append({
                "factor": fk, "t_start": ev.t_start, "t_end": ev.t_end,
                "labels": list(ev.labels), "min_gap": ev.min_gap, "t_min": ev.t_min,
            })
    sing_report = classify_singularities(family.probabilities, grid,
                                         rate_matrices, tol=tol)
    singularities = [
        {"time": ev.time, "state": ev.state, "kind": ev.kind,
         "divergent": ev.divergent, "t_start": ev.t_start, "t_end": ev.t_end}
        for ev in sing_report.events
    ]

    kernels = None
    kernel_window = None
    chapman = None
    honesty_max = None
    cross_check = None
    kernel_note = None
    windows = _kernel_windows(grid, rate_traj, sing_report)
    if windows:
        s, t = max(windows, key=lambda w: w[1] - w[0])
        if t - s >= 10 * scenario.time.grid_step:
            kernel_window = (s, t)
            step = scenario.time.grid_step
            try:
                series = feller_minimal(rate_traj, s, t, quad_step=step, tol=tol)
                ode = forward_ode_kernel(rate_traj, s, t, ode_step=step, tol=tol)
                kernels = (series, ode)
                cross_check = float(np.abs(series.matrix - ode.matrix).max())
                honesty_max = float(np.abs(honesty_deficit(series)).max())
                factory = lambda a, b: forward_ode_kernel(rate_traj, a, b,
                                                          ode_step=step, tol=tol)
                chapman = chapman_kolmogorov_residual(factory, s, (t - s) / 2.0, t)
            except (PoleInInterval, TruncationNotConverged, ValueError) as exc:
                kernel_note = f"kernel stage skipped: {exc}"
        else:
            kernel_note = "no pole-free window long enough for kernels"
    else:
        kernel_note = "no pole-free window: kernels not constructed"

    paths = []
    stats = None
    tv = {}
    max_tv = None
    deterministic = None
    mean_jumps = None
    low_occ = None
    if sample:
        with _Stage("sampling"):
            process = JumpProcess(rate_traj, family.probabilities[0],
                                  family.states,
                                  currents=np.stack([c.full() for c in currents]),
                                  pole_policy=scenario.pole_policy,
                                  master_seed=scenario.ensemble.master_seed)
            paths = process.ensemble(scenario.ensemble.n_paths)
        qtimes = np.array([grid[int(np.argmin(np.abs(grid - q)))]
                           for q in scenario.ensemble.query_times])
        if len(qtimes):
            stats = ensemble_marginals(paths, qtimes, family.states)
            for qi, q in enumerate(qtimes):
                node = int(np.argmin(np.abs(grid - q)))
                tv[repr(float(q))] = total_variation(stats.frequencies[qi],
                                                     family.probabilities[node])
            max_tv = max(tv.values())
        deterministic = all(p.jump_count == 0 for p in paths)
        mean_jumps = float(np.mean([p.jump_count for p in paths]))
        low_occ = low_probability_occupancy(paths, grid, family.probabilities,
                                            family.states)

    report = RunReport(
        scenario_name=scenario.name, current=scenario.current,
        rate_choice=scenario.rate_choice,
        continuity_residual=float(cont_res), master_residual=float(master_res),
        master_rows_masked=masked, crossings=crossings,
        singularities=singularities, pole_nodes=pole_nodes,
        kernel_window=kernel_window, chapman_residual=chapman,
        honesty_deficit_max=honesty_max, kernel_cross_check=cross_check,
        kernel_note=kernel_note, total_variation=tv, max_total_variation=max_tv,
        deterministic=deterministic, mean_jumps=mean_jumps,
        low_probability_occupancy=low_occ, n_paths=len(paths),
    )

    result = PipelineResult(
        scenario=scenario, family=family, currents=currents,
        rate_matrices=rate_matrices, rate_trajectory=rate_traj,
        paths=paths, stats=stats, report=report, kernels=kernels,
    )
    if out_dir is not None and not report_only:
        _export(result, out_dir)
    return result


def _kernel_windows(grid, rate_traj, sing_report):
    """Windows on which finite-time kernels exist.

    Kernels are constructed only between singularities: nodes carrying pole
    flags and nodes inside a divergent probability-zero run are excluded,
    with a small pad so the window never starts on an exploding rate.
    """
    n = len(grid)
    bad = rate_traj.pole_mask.any(axis=(1, 2)).copy()
    pad = max(2, n // 200)
    for ev in sing_report.events:
        if not ev.divergent:
            continue
        lo = int(np.searchsorted(grid, ev.t_start)) - pad
        hi = int(np.searchsorted(grid, ev.t_end, side="right")) + pad
        bad[max(lo, 0):min(hi, n)] = True
    return [(float(grid[start]), float(grid[end]))
            for start, end in _runs(~bad) if end > start]


def _export(result: PipelineResult, out_dir):
    import json
    from pathlib import Path
    from .scenario import scenario_to_dict

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sc = result.scenario
    family = result.family
    sc_dict = scenario_to_dict(sc)
    mdio.write_manifest(out / "manifest.json", sc_dict, sc.ensemble.master_seed)
    (out / "scenario.json").write_text(
        json.dumps(sc_dict, indent=1, sort_keys=True) + "\n", encoding="utf-8")
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
    if result.paths:
        mdio.write_paths_jsonl(out / "paths.jsonl", result.paths)
    if result.stats is not None:
        grid = family.grid
        born = np.empty_like(result.stats.frequencies)
        for qi, q in enumerate(result.stats.times):
            node = int(np.argmin(np.abs(grid - q)))
            born[qi] = family.probabilities[node]
        mdio.write_stats_csv(out / "stats.csv", result.stats, born)
    mdio.write_report_json(out / "report.json", result.report.to_dict())
