"""Property tests on random inputs, drawn reproducibly (``derandomize=True``)."""

import os
import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from modaldyn import cli
from modaldyn import io as mdio
from modaldyn.errors import ModalDynError, ScenarioValidationError
from modaldyn.feller import feller_minimal, forward_ode_kernel
from modaldyn.pipeline import run
from modaldyn.scenario import CHOICES, EnsembleSpec, Scenario, TimeSpec, scenario_to_dict

from conftest import constant_trajectory, random_hermitian, random_ket, relay_scenario

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
    rates = constant_trajectory(gen)
    series = feller_minimal(rates, 0.0, 1.0)
    ode = forward_ode_kernel(rates, 0.0, 1.0)
    assert -np.diag(gen).min() <= 3.0 + 1e-12
    assert np.abs(series.matrix - exact).max() <= 1e-6
    assert np.abs(ode.matrix - exact).max() <= 1e-6


@st.composite
def random_scenarios(draw):
    """2-4 factors of dimension 2, 3 or 4 (total at most 16), a random H and
    psi, and every scenario choice, on [0, 0.2] at step 1e-3 with 100 paths."""
    n_factors = draw(st.integers(2, 4))
    dims = []
    for k in range(n_factors):
        # Leave room for dimension 2 in each factor still to come.
        room = 16 // (int(np.prod(dims)) * 2 ** (n_factors - k - 1))
        dims.append(draw(st.sampled_from([d for d in (2, 3, 4) if d <= room])))
    dim = int(np.prod(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    choices = {key: draw(st.sampled_from(allowed)) for key, allowed in CHOICES.items()}
    return Scenario(name="random", factor_dims=tuple(dims),
                    hamiltonian=random_hermitian(rng, dim),
                    initial_state=random_ket(rng, dim),
                    time=TimeSpec(0.0, 0.2, 1e-3),
                    ensemble=EnsembleSpec(100, draw(st.integers(0, 2 ** 32 - 1)), (0.1, 0.2)),
                    **choices)


# Systems besides the draws: two relay systems, and one of them under the
# general rates, which run at its zero probabilities.
@PROPERTY
@given(random_scenarios())
@example(relay_scenario((2, 2)))
@example(relay_scenario((4, 2)))
@example(replace(relay_scenario((2, 2)), rate_choice="general", general_rate_offset=1.0))
def test_random_systems_report_or_name_their_failure(scenario):
    # A run ends in a report with finite diagnostics, a named ModalDynError,
    # or a numeric error that names the stage it came from; the same scenario
    # from a file then exits the command line with the code that outcome
    # implies.  (tempfile, not tmp_path: hypothesis refuses function-scoped
    # fixtures.)
    try:
        report = run(scenario, report_only=True).report
    except ScenarioValidationError:
        code = 2
    except ModalDynError:
        code = 1
    except (ValueError, ArithmeticError) as exc:
        assert str(exc).startswith("[stage: "), repr(exc)
        code = 1
    else:
        floats = [v for v in vars(report).values() if isinstance(v, float)]
        floats += list(report.total_variation.values())
        assert np.isfinite(floats).all(), report
        code = 3 if report.failures(scenario.thresholds) else 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        mdio.write_json(path, scenario_to_dict(scenario))
        assert cli.main(["run", path, "--report-only"]) == code
