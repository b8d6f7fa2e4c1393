"""Scenario records, builtin families and JSON (de)serialization.

A scenario pins everything a run needs: the factored Hilbert space, the
Hamiltonian, the initial pure state, the time window and grid, the two free
choices that fix the dynamics (the current and the rate family's offset c,
whose value 0 is Bell's rates), the ensemble size and seed, and the
residual bounds.  A scenario file is a JSON object keyed by the fields of
:class:`Scenario`, with complex numbers as ``[re, im]`` pairs; one reader per
key turns a value into its field.  A file either embeds the system
(``factor_dims``, ``hamiltonian.matrix``, ``initial_state``) or names a
builtin builder, which fixes those keys, and overrides the other fields.
A key that no reader knows, at any level, is rejected by name.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .currents import KINDS
from .errors import ScenarioValidationError
from .hilbert import FactorSpace, check_hermitian, check_ket
from . import io as mdio

__all__ = [
    "BUILTINS",
    "EnsembleSpec",
    "Scenario",
    "Thresholds",
    "TimeSpec",
    "builtin_scenarios",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
]

# The allowed values of the choice key.
CHOICES = {"current": KINDS}


@dataclass(frozen=True)
class TimeSpec:
    t0: float
    t1: float
    grid_step: float


@dataclass(frozen=True)
class EnsembleSpec:
    n_paths: int
    master_seed: int
    query_times: tuple[float, ...]


@dataclass(frozen=True)
class Thresholds:
    """Residual bounds a run must meet to exit cleanly."""

    continuity: float = 1e-5
    master: float = 1e-5
    chapman: float = 1e-5
    honesty: float = 1e-6
    total_variation: float = 0.01


@dataclass(frozen=True)
class Scenario:
    name: str
    factor_dims: tuple[int, ...]
    hamiltonian: np.ndarray
    initial_state: np.ndarray
    time: TimeSpec
    current: str = "generalized_schrodinger"
    general_rate_offset: float = 0.0
    ensemble: EnsembleSpec = EnsembleSpec(10_000, 0, ())
    thresholds: Thresholds = Thresholds()

    @property
    def space(self) -> FactorSpace:
        return FactorSpace(self.factor_dims)

    def grid(self) -> np.ndarray:
        n = int(round((self.time.t1 - self.time.t0) / self.time.grid_step)) + 1
        return self.time.t0 + self.time.grid_step * np.arange(n)

    def validate(self) -> "Scenario":
        try:
            space = self.space
        except ValueError as exc:
            raise ScenarioValidationError(f"factor_dims: {exc}") from exc
        h = np.asarray(self.hamiltonian, dtype=complex)
        psi = np.asarray(self.initial_state, dtype=complex).reshape(-1)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ScenarioValidationError("hamiltonian: must be a square matrix")
        if h.shape[0] != space.dim:
            raise ScenarioValidationError(
                f"hamiltonian: dimension {h.shape[0]} != product of factors {space.dim}"
            )
        if psi.size != space.dim:
            raise ScenarioValidationError(
                f"initial_state: length {psi.size} != product of factors {space.dim}"
            )
        for name, check, value in (("hamiltonian", check_hermitian, h),
                                   ("initial_state", check_ket, psi)):
            try:
                check(value)
            except ValueError as exc:
                raise ScenarioValidationError(f"{name}: {exc}") from exc
        if not np.isfinite([self.time.t0, self.time.t1, self.time.grid_step]).all():
            raise ScenarioValidationError("time: t0, t1 and grid_step must be finite")
        if not self.time.grid_step > 0:
            raise ScenarioValidationError("time: grid_step must be positive")
        if not self.time.t1 > self.time.t0:
            raise ScenarioValidationError("time: need t1 > t0")
        try:
            grid = self.grid()
        except (OverflowError, MemoryError) as exc:
            raise ScenarioValidationError(f"time: the grid cannot be built ({exc})") from exc
        if len(grid) < 3:
            raise ScenarioValidationError("time: the grid needs at least 3 nodes")
        if abs(grid[-1] - self.time.t1) > 1e-9 * self.time.grid_step:
            raise ScenarioValidationError("time: grid_step must divide t1 - t0")
        if not 1 <= self.ensemble.n_paths <= 2 ** 32:    # one stream per path
            raise ScenarioValidationError("ensemble: n_paths must lie in [1, 2**32]")
        if self.ensemble.master_seed < 0:
            raise ScenarioValidationError("ensemble: master_seed must be nonnegative")
        for q in self.ensemble.query_times:
            if not self.time.t0 <= q <= self.time.t1 + 1e-12:
                raise ScenarioValidationError(
                    f"ensemble: query time {q} outside [{self.time.t0}, {self.time.t1}]"
                )
        for key, allowed in CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ScenarioValidationError(f"{key}: unknown kind {getattr(self, key)!r}")
        if not 0 <= self.general_rate_offset < np.inf:
            raise ScenarioValidationError("general_rate_offset: must be finite and "
                                          "nonnegative")
        for name, val in asdict(self.thresholds).items():
            if not 0 < val < np.inf:
                raise ScenarioValidationError(f"thresholds: {name} must be positive "
                                              "and finite")
        return self


# -- builtin scenario families -------------------------------------------

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def build_easyexample(theta: float = 1.0, t1: float = 0.7,
                      n_paths: int = 100_000, master_seed: int = 20_240_501) -> Scenario:
    """Two coupled qubits whose reduced weights sweep cos^2/sin^2.

    The coupling rotates |00> into |11>, so each factor's reduced state has
    fixed eigenprojections with weights cos^2(theta t) and sin^2(theta t);
    the weights cross at theta t = pi/4.
    """
    h = np.zeros((4, 4), dtype=complex)
    h[3, 0] = h[0, 3] = -theta
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    queries = tuple(round(f * t1 / 1e-3) * 1e-3 for f in (1 / 7, 2 / 7, 0.5, 5 / 7, 13 / 14))
    return Scenario(
        name="easyexample", factor_dims=(2, 2), hamiltonian=h, initial_state=psi,
        time=TimeSpec(0.0, t1, 1e-3),
        ensemble=EnsembleSpec(n_paths, master_seed, queries),
    )


def build_albert_free(omega: float = 1.0, weight: float = 0.7,
                      n_paths: int = 100_000, master_seed: int = 20_240_502) -> Scenario:
    """Non-interacting pair prepared in a two-branch entangled state.

    Factor 0 rotates under its own Hamiltonian while factor 1 is inert; the
    joint dynamics is deterministic, every path follows the rotating
    projectors without jumps.
    """
    c1, c2 = np.sqrt(weight), np.sqrt(1.0 - weight)
    h = np.kron(-omega * _SX, np.eye(2, dtype=complex))
    psi = np.zeros(4, dtype=complex)
    psi[0] = c1   # |a1, b1>
    psi[3] = c2   # |a2, b2>
    return Scenario(
        name="albert-free", factor_dims=(2, 2), hamiltonian=h, initial_state=psi,
        time=TimeSpec(0.0, 1.0, 1e-3),
        ensemble=EnsembleSpec(n_paths, master_seed, (0.2, 0.4, 0.6, 0.8, 1.0)),
    )


def build_singlet(n_paths: int = 100_000, master_seed: int = 20_240_503) -> Scenario:
    """Singlet pair with zero Hamiltonian: static, perfectly anticorrelated."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    return Scenario(
        name="singlet", factor_dims=(2, 2),
        hamiltonian=np.zeros((4, 4), dtype=complex), initial_state=psi,
        time=TimeSpec(0.0, 0.5, 1e-3),
        ensemble=EnsembleSpec(n_paths, master_seed, (0.1, 0.2, 0.3, 0.4, 0.5)),
    )


def build_measured_possessed(coupling: float = 1.0, weight: float = 0.3,
                             n_paths: int = 100_000,
                             master_seed: int = 20_240_504) -> Scenario:
    """Ideal recording of a property the system already possesses.

    Factor 0 carries a definite property (it is pre-entangled with the
    environment factor 2), factor 1 is the apparatus pointer.  The
    interaction commutes with the measured projectors, so factor 0 never
    jumps while the pointer swings conditioned on it; at the end of the
    window (a quarter swing) pointer and property labels correlate exactly.
    """
    a, b = np.sqrt(weight), np.sqrt(1.0 - weight)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    h = coupling * np.kron(np.kron(p1, -_SY), np.eye(2, dtype=complex))
    psi = np.zeros(8, dtype=complex)
    psi[0] = a    # |0, ready, e0>
    psi[5] = b    # |1, ready, e1>
    t1 = float(np.pi / (2.0 * coupling))
    t1 = round(t1 / 1e-3) * 1e-3
    queries = tuple(round(f * t1 / 1e-3) * 1e-3 for f in (0.2, 0.4, 0.6, 0.8, 1.0))
    return Scenario(
        name="measured-possessed-property", factor_dims=(2, 2, 2),
        hamiltonian=h, initial_state=psi,
        time=TimeSpec(0.0, t1, 1e-3),
        ensemble=EnsembleSpec(n_paths, master_seed, queries),
    )


def build_interacting_two_spin(n_paths: int = 100_000,
                               master_seed: int = 20_240_505) -> Scenario:
    """Generic entangling pair: rotating projectors and genuine jumps.

    Couplings are chosen so every joint probability stays well away from
    zero on the window and the reduced spectra stay nondegenerate.
    """
    h = (1.1 * np.kron(_SX, _SX) + 0.3 * np.kron(_SZ, np.eye(2))
         + 0.2 * np.kron(np.eye(2), _SZ))
    psi = np.array([0.8, 0.0, 0.0, 0.6], dtype=complex)
    return Scenario(
        name="interacting-two-spin", factor_dims=(2, 2), hamiltonian=h,
        initial_state=psi, time=TimeSpec(0.0, 1.0, 1e-3),
        ensemble=EnsembleSpec(n_paths, master_seed, (0.2, 0.4, 0.6, 0.8, 1.0)),
    )


BUILTINS = {
    "easyexample": build_easyexample,
    "albert-free": build_albert_free,
    "singlet": build_singlet,
    "measured-possessed-property": build_measured_possessed,
    "interacting-two-spin": build_interacting_two_spin,
}


def builtin_scenarios() -> list[str]:
    return sorted(BUILTINS)


# -- (de)serialization -----------------------------------------------------

def scenario_to_dict(sc: Scenario) -> dict:
    """The JSON document of ``sc``: its fields, complex arrays as pairs."""
    out = asdict(sc)
    out["hamiltonian"] = {"matrix": mdio.complex_to_json(sc.hamiltonian)}
    out["initial_state"] = mdio.complex_to_json(sc.initial_state)
    return out


def _object(value, keys) -> dict:
    """``value`` as a JSON object whose keys all come from ``keys``."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ValueError(f"unknown key {key!r}")
    return value


def _integer(value) -> int:
    """``value`` as an int; floats, even integral ones, strings and booleans fail."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _number(value) -> float:
    """``value`` as a float; only JSON numbers pass, not strings or booleans."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError("number out of the float range") from exc


def _string(value) -> str:
    """``value`` as a str; numbers, booleans and null fail."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _record(cls, convert, **special):
    """Reader of a nested object whose keys are the fields of ``cls``; a value
    that does not convert is named by its key."""
    keys = {f.name for f in fields(cls)}

    def read(value):
        out = {}
        for k, v in _object(value, keys).items():
            try:
                out[k] = special.get(k, convert)(v)
            except ValueError as exc:
                raise ValueError(f"{k}: {exc}") from exc
        return cls(**out)
    return read


# One reader per top-level key: it turns the key's JSON value into the
# Scenario field.  The flag marks the keys that a builder fixes.
_READERS = {
    "name": (_string, False),
    "factor_dims": (lambda v: tuple(_integer(d) for d in v), True),
    "hamiltonian": (lambda v: mdio.complex_from_json(_object(v, ("matrix",))["matrix"]), True),
    "initial_state": (mdio.complex_from_json, True),
    "time": (_record(TimeSpec, _number), False),
    "ensemble": (_record(EnsembleSpec, _integer,
                         query_times=lambda v: tuple(_number(q) for q in v)), False),
    "thresholds": (_record(Thresholds, _number), False),
    "general_rate_offset": (_number, False),
    **{key: (_string, False) for key in CHOICES},
}


def _read(data: dict, builder: str | None) -> dict:
    """The Scenario fields that ``data`` sets; ``builder`` fixes the flagged keys."""
    out = {}
    for key, value in data.items():
        if key not in _READERS:
            raise ScenarioValidationError(f"unknown key {key!r}")
        read, fixed = _READERS[key]
        if fixed and builder is not None:
            raise ScenarioValidationError(f"{key}: fixed by builder {builder!r}")
        try:
            out[key] = read(value)
        except ValueError as exc:
            raise ScenarioValidationError(f"{key}: {exc}") from exc
        except (KeyError, TypeError) as exc:
            raise ScenarioValidationError(f"malformed scenario: {key}: {exc}") from exc
    return out


def scenario_from_dict(data: dict) -> Scenario:
    """Read and validate a scenario document (see the module docstring)."""
    if not isinstance(data, dict):
        raise ScenarioValidationError("malformed scenario: the top level must be an object")
    try:
        ham = data.get("hamiltonian")
        if not (isinstance(ham, dict) and "builder" in ham):
            return Scenario(**_read(data, None)).validate()
        name = ham["builder"]
        if name not in BUILTINS:
            raise ScenarioValidationError(f"unknown builder {name!r}")
        for key in ham:
            if key not in ("builder", "params"):
                raise ScenarioValidationError(
                    f"hamiltonian: unknown key {key!r} beside builder {name!r}")
        overrides = _read({k: v for k, v in data.items() if k != "hamiltonian"}, name)
        return replace(BUILTINS[name](**ham.get("params", {})), **overrides).validate()
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioValidationError(f"malformed scenario: {exc}") from exc


def load_scenario(source: str) -> Scenario:
    """Load a builtin by name or a scenario JSON file by path."""
    if source in BUILTINS:
        return BUILTINS[source]().validate()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioValidationError(
            f"{source!r} is neither a builtin ({', '.join(builtin_scenarios())}) "
            f"nor a readable file"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioValidationError(f"{source} is not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError(
            f"parse error in {source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return scenario_from_dict(data)
