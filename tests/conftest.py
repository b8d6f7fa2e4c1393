import numpy as np
import pytest

from modaldyn.kinetics import RateMatrix, RateTrajectory

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
