"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Heavy pipeline runs are cached at module scope and reused across criteria.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import time
from functools import lru_cache, reduce

import numpy as np
from scipy.integrate import trapezoid
from scipy.linalg import expm

from modaldyn.currents import current_matrix
from modaldyn.feller import feller_minimal, forward_ode_kernel
from modaldyn.kinetics import master_residual, pole_free_rows
from modaldyn.pipeline import (compute_currents, compute_joint_family,
                               compute_rates, pdot_target, run)
from modaldyn.scenario import BUILTINS, builtin_scenarios, load_scenario
from modaldyn.spectral import detect_crossings, track

from conftest import (constant_trajectory, least_norm_current_oracle, random_hermitian,
                      random_system)

FULL_ENSEMBLE = 100_000
RUNTIMES = {}


def _report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


@lru_cache(maxsize=None)
def cached_run(name, current=None, n_paths=FULL_ENSEMBLE):
    sc = load_scenario(name)
    t0 = time.perf_counter()
    result = run(sc, report_only=True, n_paths=n_paths, current=current)
    RUNTIMES[(name, current)] = time.perf_counter() - t0
    return result


@lru_cache(maxsize=None)
def cached_family(name):
    return compute_joint_family(load_scenario(name))


def test_criterion_01_born_marginal_reproduction():
    worst = {}
    for name in builtin_scenarios():
        result = cached_run(name)
        rep = result.report
        assert rep.n_paths == FULL_ENSEMBLE
        worst[name] = rep.max_total_variation
        assert rep.max_total_variation <= 0.01, \
            f"{name}: TV {rep.max_total_variation:.4f}"
        assert RUNTIMES[(name, None)] <= 60.0, \
            f"{name}: runtime {RUNTIMES[(name, None)]:.1f}s"
        # Per-state binomial band and the zero-state sojourn monitor.
        grid = result.family.grid
        for q, tq in enumerate(result.stats.times):
            node = int(np.argmin(np.abs(grid - tq)))
            born = result.family.probabilities[node]
            band = 3.0 * np.sqrt(np.maximum(born * (1 - born), 1e-9) / FULL_ENSEMBLE)
            diff = np.abs(result.stats.frequencies[q] - born)
            assert np.all(diff <= band + 2e-3), \
                f"{name} t={tq}: state deviation {diff.max():.4f}"
        assert rep.low_probability_occupancy <= 0.01, \
            f"{name}: zero-state occupancy {rep.low_probability_occupancy:.3e}"
        # Mean jump count against its exact value, the integral of
        # sum_i p_i * exit_i: 6 standard errors plus the 1/N count resolution.
        jumps = np.array([p.jump_count for p in result.paths], dtype=float)
        exits = np.clip(-np.einsum("nii->ni", result.rate_trajectory.matrices), 0.0, None)
        predicted = trapezoid((result.family.probabilities * exits).sum(axis=1), grid)
        se = jumps.std(ddof=1) / np.sqrt(len(jumps))
        assert abs(jumps.mean() - predicted) <= 6 * se + 1 / len(jumps), \
            f"{name}: mean jumps {jumps.mean():.4f} vs predicted {predicted:.4f}"
    txt = ", ".join(f"{k} TV={v:.4f} ({RUNTIMES[(k, None)]:.1f}s)"
                    for k, v in worst.items())
    _report(1, True, f"Born marginals at N=1e5: {txt}")


def test_criterion_02_free_system_determinism():
    result = cached_run("albert-free", n_paths=10_000)
    fam = result.family
    # cross[j, i]: the free factor label changes from state i to state j.
    cross = np.array([[si[0] != sj[0] for si in fam.states] for sj in fam.states])
    max_cross = float(np.abs(result.rate_matrices.matrix[:, cross]).max())
    total_jumps = sum(p.jump_count for p in result.paths)
    ok = max_cross <= 1e-8 and total_jumps == 0 and len(result.paths) == 10_000
    _report(2, ok, f"free-factor rates max {max_cross:.2e}, "
                   f"{total_jumps} jumps across {len(result.paths)} paths")


CONSTANT_INSTANCES = {
    2: np.array([[0.0, 2.0], [1.0, 0.0]]),
    3: np.array([[0.0, 0.5, 1.0], [0.7, 0.0, 0.3], [0.4, 0.8, 0.0]]),
    4: np.array([[0.0, 0.4, 0.9, 0.2], [0.6, 0.0, 0.1, 0.5],
                 [0.3, 0.7, 0.0, 0.8], [0.2, 0.3, 0.6, 0.0]]),
}


def _constant_rates(off):
    """Rates fixed at the generator ``t`` of ``off`` on [0, 1] at step 1e-3, with ``t``."""
    t = off.copy()
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, -t.sum(axis=0))
    return constant_trajectory(t), t


def test_criterion_03_feller_vs_exponential():
    worst_exp = worst_ode = 0.0
    for d, off in CONSTANT_INSTANCES.items():
        rates, t = _constant_rates(off)
        series = feller_minimal(rates, 0.0, 1.0, n_max=25)
        exact = expm(t).real
        ode = forward_ode_kernel(rates, 0.0, 1.0)
        worst_exp = max(worst_exp, np.abs(series.matrix - exact).max())
        worst_ode = max(worst_ode, np.abs(series.matrix - ode.matrix).max())
    ok = worst_exp <= 1e-6 and worst_ode <= 1e-6
    _report(3, ok, f"series vs expm {worst_exp:.2e}, vs forward solver {worst_ode:.2e}")


def _kernel_residuals(rates, s, t, h):
    """Kolmogorov residuals at grid nodes ``s`` and ``t`` of step ``h``."""
    here = forward_ode_kernel(rates, s, t).matrix
    fwd = (forward_ode_kernel(rates, s, t + h).matrix
           - forward_ode_kernel(rates, s, t - h).matrix) / (2 * h)
    bwd = (forward_ode_kernel(rates, s + h, t).matrix
           - forward_ode_kernel(rates, s - h, t).matrix) / (2 * h)
    rate_s, rate_t = (rates.matrices[np.abs(rates.grid - u).argmin()] for u in (s, t))
    fwd_res = np.abs(fwd - rate_t @ here).max()
    bwd_res = np.abs(bwd + here @ rate_s).max()
    return fwd_res, bwd_res


def test_criterion_04_kolmogorov_equation_residuals():
    worst_f = worst_b = 0.0
    rates, _ = _constant_rates(CONSTANT_INSTANCES[3])
    f, b = _kernel_residuals(rates, 0.1, 0.6, 1e-3)
    worst_f, worst_b = max(worst_f, f), max(worst_b, b)
    for name in ("easyexample", "interacting-two-spin"):
        rt = cached_run(name).rate_trajectory
        f, b = _kernel_residuals(rt, 0.1, 0.6, 1e-3)
        worst_f, worst_b = max(worst_f, f), max(worst_b, b)
    ok = worst_f <= 1e-4 and worst_b <= 1e-4
    _report(4, ok, f"forward residual {worst_f:.2e}, backward residual {worst_b:.2e}")


def test_criterion_05_chapman_kolmogorov():
    worst = {}
    for name in builtin_scenarios():
        rep = cached_run(name).report
        assert rep.chapman_residual is not None, \
            f"{name}: no pole-free kernel window"
        worst[name] = rep.chapman_residual
        assert rep.chapman_residual <= 1e-5, \
            f"{name}: CK residual {rep.chapman_residual:.2e}"
    txt = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _report(5, True, f"Chapman-Kolmogorov residuals: {txt}")


def test_criterion_06_continuity_and_master_residuals():
    # Every current is held to the one Born derivative, pdot_target.  The
    # minimal-flow and generalized currents carry the exact derivative, so
    # their continuity residual is the 3-point stencil's error, and Bell's
    # rates reproduce each current's own divergence, as the run's master
    # check measures it.  The static current cannot see the
    # projectors rotate, so it is the negative control: it must fail where
    # they do, on measured-possessed-property (0.339 at seed 1) and in the
    # report of a run that uses it.
    worst_cont = worst_master = 0.0
    for name in builtin_scenarios():
        fam = cached_family(name)
        target = pdot_target(fam)
        for kind in ("minimal_flow", "generalized_schrodinger"):
            currents = compute_currents(fam, kind=kind)
            rates = compute_rates(currents, fam.probabilities)
            divergence = currents.matrix.sum(axis=-1)
            worst_cont = max(worst_cont, np.abs(target - divergence).max())
            worst_master = max(worst_master, master_residual(
                rates, fam.probabilities, divergence, rows=pole_free_rows(rates)))
    fam = cached_family("measured-possessed-property")
    static = compute_currents(fam, kind="static_schrodinger")
    control = np.abs(pdot_target(fam) - static.matrix.sum(axis=-1)).max()
    result = cached_run("measured-possessed-property", "static_schrodinger", 200)
    report = result.report
    named = [f for f in report.failures(result.scenario.thresholds)
             if f.startswith("continuity residual")]
    ok = (worst_cont <= 1e-5 and worst_master <= 1e-5 and control > 1e-5
          and report.continuity_residual > 1e-5 and len(named) == 1)
    _report(6, ok, f"minimal-flow and generalized x scenarios: continuity "
                   f"{worst_cont:.2e}, master {worst_master:.2e}; static control "
                   f"{control:.2e} on measured-possessed-property, run reports "
                   f"{report.continuity_residual:.2e}")


def test_criterion_07_current_structure():
    fam = cached_family("interacting-two-spin")
    k = 400
    psi = fam.psi[k]
    h = np.asarray(fam.scenario.hamiltonian)
    vecs = [traj.vectors[k] for traj in fam.factor_trajectories]
    conns = [c[k] for c in fam.connections]

    # Every constructor stores an exactly antisymmetric matrix, bit for bit.
    anti = True
    for cm in (current_matrix("minimal_flow", psi, h, vecs, conns),
               current_matrix("static_schrodinger", psi, h, vecs),
               current_matrix("generalized_schrodinger", psi, h, vecs, conns),
               current_matrix("minimal_flow_like", psi, h, vecs, conns)):
        full = cm.matrix
        anti = anti and np.array_equal(full, -full.T)

    # Frozen projectors reduce the generalized current to the static one.
    gen0 = current_matrix("generalized_schrodinger", psi, h, vecs,
                          [np.zeros_like(c) for c in conns])
    stat = current_matrix("static_schrodinger", psi, h, vecs)
    reduction = np.abs(gen0.matrix - stat.matrix).max()

    # With two factors a pure state's rotation term vanishes (Schmidt form).
    # On three factors the generalized current less the static one is the
    # rotation term -2 Re(conj(c_a) Gamma_ab c_b), with c_a = <v_a|psi> and
    # Gamma = sum_k 1 (x) A_k (x) 1 formed densely here.
    fam3 = compute_joint_family(random_system(7, (2, 2, 2)))
    psi3, h3 = fam3.psi[100], np.asarray(fam3.scenario.hamiltonian)
    vecs3 = [traj.vectors[100] for traj in fam3.factor_trajectories]
    conns3 = [c[100] for c in fam3.connections]
    amps = reduce(np.kron, vecs3).conj() @ psi3
    eye = [np.eye(len(v)) for v in vecs3]
    gamma = sum(reduce(np.kron, eye[:k] + [c] + eye[k + 1:]) for k, c in enumerate(conns3))
    rotation = -2.0 * (amps.conj()[:, None] * gamma * amps[None, :]).real
    extra = (current_matrix("generalized_schrodinger", psi3, h3, vecs3, conns3).matrix
             - current_matrix("static_schrodinger", psi3, h3, vecs3).matrix)
    rotation_miss = np.abs(extra - rotation).max()

    # Rows and columns of zero-probability states vanish.
    worst_zero = 0.0
    for name in ("singlet", "albert-free", "interacting-two-spin",
                 "measured-possessed-property"):
        famz = cached_family(name)
        currents = compute_currents(famz, kind="generalized_schrodinger")
        zero_states = np.nonzero(famz.probabilities.max(axis=0) <= 1e-12)[0]
        if zero_states.size == 0:
            continue
        full = currents.matrix[::97]
        worst_zero = max(worst_zero,
                         np.abs(full[:, zero_states, :]).max(),
                         np.abs(full[:, :, zero_states]).max())
    ok = (anti and reduction <= 1e-12 and worst_zero <= 1e-9
          and rotation_miss <= 1e-12 * np.abs(rotation).max())
    _report(7, ok, f"antisymmetry exact, static reduction {reduction:.1e}, "
                   f"(2,2,2) rotation term {np.abs(rotation).max():.1e} matched to "
                   f"{rotation_miss:.1e}, zero-probability rows {worst_zero:.1e}")


def test_criterion_08_minimal_flow_optimality():
    # The minimal-flow current against the brute-force least-squares solution
    # for the family's exact Born derivative, the paired current's row sums,
    # and its norm against that paired current's, which has the same
    # divergence: at sampled nodes of every D = 4 builtin and a (2, 2, 2) draw.
    worst = excess = 0.0
    families = [cached_family(name) for name in builtin_scenarios()]
    for fam in families + [compute_joint_family(random_system(8, (2, 2, 2)))]:
        mine = compute_currents(fam, kind="minimal_flow").matrix
        paired = compute_currents(fam, kind="generalized_schrodinger").matrix
        pdot = paired.sum(axis=-1)
        for k in range(0, len(fam.grid), 50):
            worst = max(worst, np.abs(mine[k] - least_norm_current_oracle(pdot[k])).max())
            excess = max(excess, np.linalg.norm(mine[k]) - np.linalg.norm(paired[k]))
    ok = worst <= 1e-8 and excess <= 1e-12
    _report(8, ok, f"least-norm match over D in (4, 8): max deviation {worst:.2e}, "
                   f"norm above the paired current's {excess:.1e}")


def test_criterion_09_spectral_tracking():
    rng = np.random.default_rng(9)
    h = random_hermitian(rng, 3)
    w0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    step = 1e-3
    grid = np.arange(0.0, 1.0 + 1e-12, step)
    states = []
    for t in grid:
        u = expm(-1j * h * t)
        states.append(u @ w0 @ u.conj().T)
    traj = track(states, grid)
    worst = 0.0
    for k in range(0, len(grid), 111):
        u = expm(-1j * h * grid[k])
        for i in range(3):
            base = np.zeros((3, 3), dtype=complex)
            base[i, i] = 1.0
            worst = max(worst, np.abs(traj.projectors[k, i]
                                      - u @ base @ u.conj().T).max())

    fam = compute_joint_family(BUILTINS["easyexample"](t1=3.141))
    events = detect_crossings(fam.factor_trajectories[0])
    mins = sorted(ev.t_min for ev in events)
    loc = max(abs(mins[0] - np.pi / 4), abs(mins[1] - 3 * np.pi / 4))
    ok = worst <= 1e-6 and len(mins) == 2 and loc <= step
    _report(9, ok, f"rotation-family tracking error {worst:.2e}, "
                   f"crossing localization {loc:.2e}")


def test_criterion_10_empirical_equivalence_distinct_dynamics():
    gen = cached_run("easyexample")
    mini = cached_run("easyexample", current="minimal_flow")
    n = FULL_ENSEMBLE
    worst_sigma = 0.0
    for q in range(len(gen.stats.times)):
        node = int(np.argmin(np.abs(gen.family.grid - gen.stats.times[q])))
        born = gen.family.probabilities[node]
        for s in range(len(gen.stats.labels)):
            sigma = np.sqrt(max(born[s] * (1 - born[s]), 1e-12) * 2.0 / n)
            diff = abs(gen.stats.frequencies[q, s] - mini.stats.frequencies[q, s])
            worst_sigma = max(worst_sigma, diff / (3 * sigma))
    jumps_gen = gen.report.mean_jumps
    jumps_min = mini.report.mean_jumps
    sep = (jumps_min - jumps_gen) / np.sqrt(2.0 / n)    # jump counts are O(1)
    ok = worst_sigma <= 1.0 and sep > 10.0
    _report(10, ok, f"marginals agree within 3 sigma (worst {worst_sigma:.2f}), "
                    f"mean jumps {jumps_gen:.3f} vs {jumps_min:.3f} (distinct)")
