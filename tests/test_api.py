"""The public surface: tolerances are fixed values, never per-call options,
NaN never passes an entry check, every root name has a caller outside the
tests, and the runtime needs numpy alone."""

import ast
import functools
import inspect
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import modaldyn
from modaldyn.algebra import generate_faux_boolean
from modaldyn.currents import CurrentMatrix, current_matrix
from modaldyn.feller import TransitionKernel, feller_minimal, forward_ode_kernel
from modaldyn.hilbert import FactorSpace, partial_trace, tensor_product
from modaldyn.kinetics import RateMatrix, RateTrajectory, rate_matrix
from modaldyn.pipeline import RunReport, compute_currents, compute_joint_family, compute_rates
from modaldyn.sampler import (JumpProcess, PathEnsemble, ensemble_marginals,
                              low_probability_occupancy)
from modaldyn.scenario import Thresholds, load_scenario
from modaldyn.spectral import derivative_family, track

REMOVED = {"tol", "overlap_threshold", "sample", "pole_policy", "upper"}


def _public_callables():
    """Functions, classes and methods reachable from the package root.

    ``modaldyn.config`` is left out: its record's fields are the fixed
    values themselves, not options of a call.
    """
    modules = [modaldyn] + [m for m in vars(modaldyn).values()
                            if inspect.ismodule(m) and m.__name__.startswith("modaldyn.")
                            and m.__name__ != "modaldyn.config"]
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith(
                    "modaldyn"):
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_per_call_tolerance_or_test_only_switch():
    found = sorted(f"{where}({param})" for where, fn in _public_callables()
                   for param in inspect.signature(fn).parameters if param in REMOVED)
    assert found == []


NAN = float("nan")
ZERO_CURRENT = CurrentMatrix(np.zeros((2, 2)))
STILL = RateTrajectory([0.0, 1.0], RateMatrix(np.zeros((2, 2, 2)), np.zeros((2, 2, 2), bool)))
ONE_PATH = PathEnsemble(states=((0,), (1,)), initial=np.array([0]), offsets=np.array([0, 1]),
                        times=np.array([0.5]), dest=np.array([1]))
MIXED = np.stack([np.eye(2) / 2] * 2)
STILL_CURRENT = CurrentMatrix(np.zeros((2, 2, 2)))
HALVES = np.full((2, 2), 0.5)


def constant_rates(generator, nodes=3):
    """``generator`` at ``nodes`` equally spaced nodes of [0, 1], no poles."""
    m = np.repeat(np.asarray(generator, dtype=float)[None], nodes, axis=0)
    return RateTrajectory(np.linspace(0.0, 1.0, nodes), RateMatrix(m, np.zeros(m.shape, bool)))


def one_event(t):
    return PathEnsemble(states=((0,), (1,)), initial=[0], offsets=[0, 1], times=[t], dest=[1])


def two_states(initial, offsets, dest, times=(0.2, 0.5)):
    """A PathEnsemble over two states with the given columns."""
    return PathEnsemble(states=((0,), (1,)), initial=np.array(initial),
                        offsets=np.array(offsets), times=np.array(times), dest=np.array(dest))


@functools.cache
def easyexample():
    return compute_joint_family(load_scenario("easyexample"))


# Each entry point with one NaN among otherwise valid inputs.
NAN_INPUTS = {
    "RateMatrix off-diagonal": lambda: RateMatrix(np.array([[0.0, NAN], [0.0, 0.0]]),
                                                  np.zeros((2, 2), bool)),
    "RateMatrix diagonal": lambda: RateMatrix(np.array([[NAN, 0.0], [0.0, 0.0]]),
                                              np.zeros((2, 2), bool)),
    "CurrentMatrix": lambda: CurrentMatrix(np.array([[0.0, NAN], [-NAN, 0.0]])),
    "TransitionKernel": lambda: TransitionKernel(0.0, 1.0, np.array([[NAN, 0.0], [0.0, 1.0]]),
                                                 "series"),
    "bell_rates": lambda: rate_matrix(ZERO_CURRENT, np.array([NAN, 1.0])),
    "general_rates": lambda: rate_matrix(ZERO_CURRENT, np.array([0.5, NAN]), 1.0),
    "minimal_flow_current": lambda: current_matrix("minimal_flow", np.array([NAN, 1.0]),
                                                   np.zeros((2, 2)), [np.eye(2)],
                                                   [np.zeros((2, 2))]),
    "JumpProcess p0": lambda: JumpProcess(STILL, np.array([NAN, 1.0]), [(0,), (1,)],
                                          CurrentMatrix(np.zeros((2, 2, 2)))),
    "feller_minimal s": lambda: feller_minimal(STILL, NAN, 1.0),
    "forward_ode_kernel s": lambda: forward_ode_kernel(STILL, NAN, 1.0),
    "track grid": lambda: track(MIXED, [0.0, NAN]),
    "derivative_family grid": lambda: derivative_family(np.zeros(3), [0.0, NAN, 1.0]),
    "ensemble_marginals time": lambda: ensemble_marginals(ONE_PATH, [NAN]),
    "low_probability_occupancy grid": lambda: low_probability_occupancy(
        ONE_PATH, [0.0, NAN, 1.0], np.zeros((3, 2))),
    "PathEnsemble one event": lambda: one_event(NAN),
    "PathEnsemble second event": lambda: PathEnsemble(
        states=((0,), (1,)), initial=[0], offsets=[0, 2], times=[0.5, NAN], dest=[1, 0]),
}


@pytest.mark.parametrize("entry", sorted(NAN_INPUTS))
def test_nan_rejected(entry):
    # Every bound is written so that a comparison with NaN fails it.
    with pytest.raises(ValueError):
        NAN_INPUTS[entry]()


# Grid, time, choice and shape faults, NaN or not, each with the check that names it.
BAD_OFFSET = "free choice offset must be finite and nonnegative"
NAMED_FAULTS = {
    "kernel window": (r"\[0\.0, nan\] does not start and end on grid nodes",
                      lambda: feller_minimal(STILL, 0.0, NAN)),
    "ODE kernel window": (r"\[0\.0, nan\] does not start and end on grid nodes",
                          lambda: forward_ode_kernel(STILL, 0.0, NAN)),
    "repeated derivative node": ("strictly increasing",
                                 lambda: derivative_family(np.zeros(3), [0.0, 1.0, 1.0])),
    "NaN track node": ("strictly increasing", lambda: track(MIXED, [NAN, 1.0])),
    "infinite query time": ("query times must be finite",
                            lambda: ensemble_marginals(ONE_PATH, [np.inf])),
    "infinite event time": ("event times must be finite", lambda: one_event(np.inf)),
    "negative infinite event time": ("event times must be finite",
                                     lambda: one_event(-np.inf)),
    # Every PathEnsemble column is checked against the others before it is read.
    "short offsets": (r"offsets must have one entry per path and one more, got 2 for 2",
                      lambda: two_states([0, 1], [0, 2], [1, 0])),
    "long offsets": (r"offsets must have one entry per path and one more, got 3 for 1",
                     lambda: two_states([0], [0, 1, 2], [1, 0])),
    "offsets past the events": ("offsets must run from 0 to the event count 2, got 0 to 3",
                                lambda: two_states([0, 1], [0, 1, 3], [1, 0])),
    "offsets not from 0": ("offsets must run from 0 to the event count 2, got 1 to 2",
                           lambda: two_states([0], [1, 2], [1, 0])),
    "decreasing offsets": ("offsets must not decrease",
                           lambda: two_states([0, 1, 0], [0, 2, 1, 2], [1, 0])),
    "short dest": ("dest must have one state per event time, got 1 for 2 events",
                   lambda: two_states([0], [0, 2], [1])),
    "dest out of range": (r"dest must index states in range\(2\)",
                          lambda: two_states([0], [0, 2], [1, 2])),
    "negative dest": (r"dest must index states in range\(2\)",
                      lambda: two_states([0], [0, 2], [-1, 0])),
    "initial out of range": (r"initial must index states in range\(2\)",
                             lambda: two_states([2], [0, 2], [1, 0])),
    # Index columns hold integers: a fraction or a flag indexes no state.
    "fractional dest": ("dest must be an integer column, got float64",
                        lambda: two_states([0], [0, 2], [1, 0.5])),
    "float initial": ("initial must be an integer column, got float64",
                      lambda: two_states([0.0], [0, 2], [1, 0])),
    "float offsets": ("offsets must be an integer column, got float64",
                      lambda: two_states([0], [0.0, 2.0], [1, 0])),
    "bool initial": ("initial must be an integer column, got bool",
                     lambda: two_states([True], [0, 2], [1, 0])),
    "bool dest": ("dest must be an integer column, got bool",
                  lambda: two_states([0], [0, 2], [True, False])),
    # The two free choices: the current's kind and the rate offset c.
    "unknown current kind": ("unknown current kind 'bogus'",
                             lambda: compute_currents(easyexample(), "bogus")),
    "bell rates, NaN offset": (BAD_OFFSET, lambda: compute_rates(STILL_CURRENT, HALVES, NAN)),
    "bell rates, negative offset": (BAD_OFFSET, lambda: compute_rates(
        STILL_CURRENT, HALVES, -1.0)),
    "bell rates, infinite offset": (BAD_OFFSET, lambda: compute_rates(
        STILL_CURRENT, HALVES, np.inf)),
    # Kernel inputs: rates a generator cannot have, a hazard the series
    # cannot sum, and a window that runs backwards.
    "positive diagonal": ("negative exit rate encountered", lambda: feller_minimal(
        constant_rates([[1.0, 0.0], [0.0, 0.0]]), 0.0, 1.0)),
    "hazard past the series": ("cumulative hazard too large for stable series evaluation",
                               lambda: feller_minimal(constant_rates(
                                   [[-1000.0, 1000.0], [1000.0, -1000.0]]), 0.0, 1.0)),
    "backward kernel window": ("need s <= t", lambda: feller_minimal(STILL, 1.0, 0.0)),
    "backward ODE kernel window": ("need s <= t", lambda: forward_ode_kernel(STILL, 1.0, 0.0)),
    # Records and operators of the wrong shape.
    "p0 of another size": ("states/p0 size does not match the rate trajectory",
                           lambda: JumpProcess(STILL, [1.0], [(0,)], STILL_CURRENT)),
    "one rate node": ("need one rate matrix per node and at least two nodes",
                      lambda: RateTrajectory([0.0], RateMatrix(np.zeros((1, 2, 2)),
                                                               np.zeros((1, 2, 2), bool)))),
    "non-square rates": ("rate matrix and pole mask must be square and congruent",
                         lambda: RateMatrix(np.zeros((2, 3)), np.zeros((2, 3), bool))),
    "non-square kernel": ("kernel matrix must be square",
                          lambda: TransitionKernel(0.0, 1.0, np.zeros((2, 3)), "series")),
    "kept factor out of range": ("keep index 2 out of range for 2 factors",
                                 lambda: partial_trace(np.eye(4), FactorSpace((2, 2)), 2)),
    "stacked tensor factor": (r"expected a square matrix, got shape \(2, 2, 2\)",
                              lambda: tensor_product(np.zeros((2, 2, 2)))),
    "non-idempotent generator": ("projector is not idempotent",
                                 lambda: generate_faux_boolean([2.0 * np.eye(2)], 2)),
}


@pytest.mark.parametrize("entry", sorted(NAMED_FAULTS))
def test_grid_and_time_faults_are_named(entry):
    message, call = NAMED_FAULTS[entry]
    with pytest.raises(ValueError, match=message):
        call()


# Each diagnostic RunReport.failures checks: its label and its bound in Thresholds.
CHECKED = {"continuity_residual": ("continuity residual", "continuity"),
           "master_residual": ("master residual", "master"),
           "chapman_residual": ("chapman residual", "chapman"),
           "honesty_deficit_max": ("honesty deficit", "honesty"),
           "max_total_variation": ("total variation", "total_variation")}


@pytest.mark.parametrize("field", sorted(CHECKED))
def test_nan_diagnostic_is_a_failure(field):
    values = {"continuity_residual": 0.0, "master_residual": 0.0, field: NAN}
    report = RunReport(scenario_name="s", current="generalized_schrodinger",
                       general_rate_offset=0.0, master_rows_masked=0, **values)
    label, bound = CHECKED[field]
    assert report.failures(Thresholds()) == [f"{label} nan > {getattr(Thresholds(), bound)}"]


def test_thresholds_are_the_checked_bounds():
    # A bound that no check reads is not a threshold.
    assert sorted(f.name for f in fields(Thresholds)) == sorted(b for _, b in CHECKED.values())


def test_tolerance_record_not_exported_from_root():
    assert not hasattr(modaldyn, "Tolerances")
    assert not hasattr(modaldyn, "DEFAULT")


def test_every_root_name_has_a_caller_outside_the_tests():
    """No public name survives only because a test imports it.

    A static stand-in for the line trace of ROADMAP item 9: every name the
    package root imports must occur, as a name, an attribute or an import,
    in another module of the package or in a demo script.
    """
    package = Path(modaldyn.__file__).resolve().parent
    demos = Path(__file__).resolve().parents[1] / "demos"
    root = ast.parse((package / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(root)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in [*package.glob("*.py"), *demos.glob("*.py")]:
        if path != package / "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    assert sorted(exported - used) == []


NO_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
from modaldyn import load_scenario, run
result = run(load_scenario("easyexample"), n_paths=200, report_only=True)
assert len(result.paths) == 200
assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
"""


def test_runs_without_scipy():
    src = str(Path(modaldyn.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
