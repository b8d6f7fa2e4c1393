"""Property tests on random inputs, drawn reproducibly (``derandomize=True``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from modaldyn.feller import feller_minimal, forward_ode_kernel

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def constant_generators(draw):
    """A constant rate matrix (columns sum to zero), D in 2..6, exit rates <= 3."""
    d = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.0, 1.0, size=(d, d)) * (rng.random((d, d)) < 0.7)
    np.fill_diagonal(off, 0.0)
    # Column j's exit rate becomes top * caps[j]; the largest one is top.
    caps = rng.uniform(0.0, 1.0, size=d)
    caps[np.argmax(caps)] = 1.0
    exits = off.sum(axis=0)
    top = draw(st.floats(0.0, 3.0))
    off *= np.divide(top * caps, exits, out=np.zeros(d), where=exits > 0)
    np.fill_diagonal(off, -off.sum(axis=0))
    return off


@PROPERTY
@given(constant_generators())
def test_constant_rate_kernels_match_expm(gen):
    # The criterion-03 bound: both kernels within 1e-6 of exp(T) on [0, 1].
    exact = expm(gen)
    fn = lambda u: gen
    series = feller_minimal(fn, 0.0, 1.0)
    ode = forward_ode_kernel(fn, 0.0, 1.0)
    assert -np.diag(gen).min() <= 3.0 + 1e-12
    assert np.abs(series.matrix - exact).max() <= 1e-6
    assert np.abs(ode.matrix - exact).max() <= 1e-6
