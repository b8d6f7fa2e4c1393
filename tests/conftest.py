import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from modaldyn.kinetics import RateMatrix, RateTrajectory
from modaldyn.scenario import EnsembleSpec, Scenario, TimeSpec

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w = a @ a.conj().T
    return w / w.trace()


def random_system(seed, dims, t1=0.2):
    """A random system on factors ``dims``, H and psi drawn from ``default_rng(seed)``,
    over t in [0, t1]."""
    rng = np.random.default_rng(seed)
    dim = int(np.prod(dims))
    return Scenario(name="random-" + "x".join(map(str, dims)), factor_dims=dims,
                    hamiltonian=random_hermitian(rng, dim), initial_state=random_ket(rng, dim),
                    time=TimeSpec(0.0, t1, 1e-3),
                    ensemble=EnsembleSpec(10, 0, (t1,))).validate()


def relay_scenario(dims):
    """A random system under the minimal-flow current whose every grid node
    flags a column, so paths relay; ``data/relay-2x2.json`` holds the
    (2, 2) one."""
    rng = np.random.default_rng(0)
    dim = int(np.prod(dims))
    return Scenario(name="relay-{}x{}".format(*dims), factor_dims=dims,
                    hamiltonian=random_hermitian(rng, dim), initial_state=random_ket(rng, dim),
                    current="minimal_flow", time=TimeSpec(0.0, 0.2, 1e-3),
                    ensemble=EnsembleSpec(2000, 0, (0.1, 0.2))).validate()


def mixed_scenario():
    """A random (2, 4) system whose psi has Schmidt rank 2, so the 4-dim
    factor carries a pair of zero weights at every node;
    ``data/mixed-2x4.json`` holds it."""
    sc = random_system(24, (2, 4), t1=0.5)
    return replace(sc, name="mixed-2x4",
                   ensemble=EnsembleSpec(2000, 24, (0.25, 0.5))).validate()


def joined_system(seed, dims1, dims2):
    """Two random systems joined without interaction, and the two parts.

    The parts are ``random_system(seed, dims1)`` and ``random_system(seed +
    1, dims2)``; the whole runs on factors ``dims1 + dims2`` with H = H1 (x) 1
    + 1 (x) H2 and psi = psi1 (x) psi2, so its labels are the pairs of the
    parts' labels, the first part's slowest.
    """
    one, two = random_system(seed, dims1), random_system(seed + 1, dims2)
    d1, d2 = one.space.dim, two.space.dim
    whole = replace(one, name="joined", factor_dims=dims1 + dims2,
                    hamiltonian=np.kron(one.hamiltonian, np.eye(d2))
                    + np.kron(np.eye(d1), two.hamiltonian),
                    initial_state=np.kron(one.initial_state, two.initial_state))
    return whole.validate(), one, two


def five_point(values, step):
    """Central 5-point derivative (fourth order) of uniform-grid values at
    nodes 2 .. n-3."""
    v = np.asarray(values)
    return (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * step)


def constant_trajectory(generator, step=1e-3, t1=1.0):
    """Rates fixed at ``generator`` on a uniform grid of ``step`` over [0, t1]."""
    grid = step * np.arange(round(t1 / step) + 1)
    stack = np.repeat(np.asarray(generator, dtype=float)[None], len(grid), axis=0)
    return RateTrajectory(grid, RateMatrix(stack, np.zeros(stack.shape, dtype=bool)))


def least_norm_current_oracle(pdot):
    """Brute-force least-squares solution of the continuity system."""
    d = len(pdot)
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    a_mat = np.zeros((d, len(pairs)))
    for col, (a, b) in enumerate(pairs):
        a_mat[a, col] = 1.0
        a_mat[b, col] = -1.0
    x, *_ = np.linalg.lstsq(a_mat, pdot, rcond=None)
    out = np.zeros((d, d))
    for col, (a, b) in enumerate(pairs):
        out[a, b] = x[col]
        out[b, a] = -x[col]
    return out


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
