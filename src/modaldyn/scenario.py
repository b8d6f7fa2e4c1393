"""Scenario records, builtin families and JSON (de)serialization.

A scenario pins everything a run needs: the factored Hilbert space, the
Hamiltonian, the initial pure state, the time window and grid, the current
constructor, the rate choice, the ensemble size and seed, and the pole
policy.  Scenario files are JSON; complex numbers are ``[re, im]`` pairs.
A file may either embed the Hamiltonian and state or name a builtin
builder with parameters and then override selected fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

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

CURRENT_KINDS = ("minimal_flow", "static_schrodinger", "generalized_schrodinger")
EXTRA_TERMS = ("paired", "minimal_flow_like")
RATE_CHOICES = ("bell", "bell_note9", "general")
POLE_POLICIES = ("resample", "abort")


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
    crossing_gap: float = 1e-2     # reporting threshold for weight crossings


@dataclass(frozen=True)
class Scenario:
    name: str
    factor_dims: tuple[int, ...]
    hamiltonian: np.ndarray
    initial_state: np.ndarray
    time: TimeSpec
    current: str = "generalized_schrodinger"
    extra_term: str = "paired"
    rate_choice: str = "bell"
    general_rate_offset: float = 0.0
    ensemble: EnsembleSpec = EnsembleSpec(10_000, 0, ())
    pole_policy: str = "resample"
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
            n_nodes = len(self.grid())
        except (OverflowError, MemoryError) as exc:
            raise ScenarioValidationError(f"time: the grid cannot be built ({exc})") from exc
        if n_nodes < 3:
            raise ScenarioValidationError("time: the grid needs at least 3 nodes")
        if self.ensemble.n_paths < 1:
            raise ScenarioValidationError("ensemble: n_paths must be >= 1")
        if self.ensemble.master_seed < 0:
            raise ScenarioValidationError("ensemble: master_seed must be nonnegative")
        for q in self.ensemble.query_times:
            if not self.time.t0 <= q <= self.time.t1 + 1e-12:
                raise ScenarioValidationError(
                    f"ensemble: query time {q} outside [{self.time.t0}, {self.time.t1}]"
                )
        if self.current not in CURRENT_KINDS:
            raise ScenarioValidationError(f"current: unknown kind {self.current!r}")
        if self.extra_term not in EXTRA_TERMS:
            raise ScenarioValidationError(f"extra_term: unknown kind {self.extra_term!r}")
        if self.rate_choice not in RATE_CHOICES:
            raise ScenarioValidationError(f"rate_choice: unknown kind {self.rate_choice!r}")
        if self.pole_policy not in POLE_POLICIES:
            raise ScenarioValidationError(f"pole_policy: unknown kind {self.pole_policy!r}")
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
                      n_paths: int = 100_000, master_seed: int = 20_240_501,
                      current: str = "generalized_schrodinger") -> Scenario:
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
        time=TimeSpec(0.0, t1, 1e-3), current=current,
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
    return {
        "name": sc.name,
        "factor_dims": list(sc.factor_dims),
        "hamiltonian": {"matrix": mdio.complex_to_json(sc.hamiltonian)},
        "initial_state": mdio.complex_to_json(sc.initial_state),
        "time": {"t0": sc.time.t0, "t1": sc.time.t1, "grid_step": sc.time.grid_step},
        "current": sc.current,
        "extra_term": sc.extra_term,
        "rate_choice": sc.rate_choice,
        "general_rate_offset": sc.general_rate_offset,
        "ensemble": {
            "n_paths": sc.ensemble.n_paths,
            "master_seed": sc.ensemble.master_seed,
            "query_times": list(sc.ensemble.query_times),
        },
        "pole_policy": sc.pole_policy,
        "thresholds": asdict(sc.thresholds),
    }


def _apply_overrides(sc: Scenario, data: dict) -> Scenario:
    if "name" in data:
        sc = replace(sc, name=str(data["name"]))
    if "time" in data:
        t = data["time"]
        sc = replace(sc, time=TimeSpec(float(t["t0"]), float(t["t1"]),
                                       float(t["grid_step"])))
    if "ensemble" in data:
        e = data["ensemble"]
        sc = replace(sc, ensemble=EnsembleSpec(
            int(e["n_paths"]), int(e["master_seed"]),
            tuple(float(q) for q in e["query_times"])))
    for key in ("current", "extra_term", "rate_choice", "pole_policy"):
        if key in data:
            sc = replace(sc, **{key: str(data[key])})
    if "general_rate_offset" in data:
        sc = replace(sc, general_rate_offset=float(data["general_rate_offset"]))
    if "thresholds" in data:
        sc = replace(sc, thresholds=Thresholds(**{
            k: float(v) for k, v in data["thresholds"].items()}))
    return sc


def _complex_field(value, name: str) -> np.ndarray:
    try:
        return mdio.complex_from_json(value)
    except ValueError as exc:
        raise ScenarioValidationError(f"{name}: {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioValidationError("malformed scenario: the top level must be an object")
    try:
        ham = data.get("hamiltonian")
        if isinstance(ham, dict) and "builder" in ham:
            builder = BUILTINS.get(ham["builder"])
            if builder is None:
                raise ScenarioValidationError(f"unknown builder {ham['builder']!r}")
            sc = builder(**ham.get("params", {}))
            return _apply_overrides(sc, data).validate()
        required = ("name", "factor_dims", "hamiltonian", "initial_state", "time")
        for key in required:
            if key not in data:
                raise ScenarioValidationError(f"missing required field {key!r}")
        base = Scenario(
            name=str(data["name"]),
            factor_dims=tuple(int(d) for d in data["factor_dims"]),
            hamiltonian=_complex_field(data["hamiltonian"]["matrix"], "hamiltonian"),
            initial_state=_complex_field(data["initial_state"], "initial_state"),
            time=TimeSpec(float(data["time"]["t0"]), float(data["time"]["t1"]),
                          float(data["time"]["grid_step"])),
        )
        return _apply_overrides(base, data).validate()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
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
