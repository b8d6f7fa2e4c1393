"""Property algebras, joint state spaces and Born weights.

A faux-Boolean algebra is the closure under meet, join and orthocomplement
of a set of mutually orthogonal projectors together with everything
orthogonal to their span.  Only the finite sub-lattice generated by the
given projectors and the single orthocomplement projector is enumerated;
membership queries still accept any subspace of the orthocomplement, which
recovers the full algebra for every purpose the sampler and tests have.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .hilbert import _check_projector, check_ket, tensor_product

__all__ = [
    "FauxBooleanAlgebra",
    "PropertyState",
    "composite_generating_set",
    "generate_faux_boolean",
    "joint_distribution",
    "joint_probability",
    "meet",
    "join",
    "orthocomplement",
    "ultrafilter_state",
]

JointIndex = tuple[int, ...]

MAX_ELEMENTS = 4096  # enumeration cap: algebras stay queryable, never huge


def meet(p, q) -> np.ndarray:
    """Lattice meet of commuting projectors."""
    return np.asarray(p) @ np.asarray(q)


def join(p, q) -> np.ndarray:
    """Lattice join of commuting projectors."""
    p = np.asarray(p)
    q = np.asarray(q)
    return p + q - p @ q


def orthocomplement(p) -> np.ndarray:
    p = np.asarray(p)
    return np.eye(p.shape[0], dtype=complex) - p


@dataclass(frozen=True)
class FauxBooleanAlgebra:
    """Finite enumeration of a faux-Boolean property algebra."""

    dim: int
    generators: tuple[np.ndarray, ...]
    perp: np.ndarray                 # projector onto the orthocomplement of span(S)
    atoms: tuple[np.ndarray, ...]    # generators plus the perp block when nonzero
    elements: tuple[np.ndarray, ...]

    def atom_index(self, p) -> int:
        for k, a in enumerate(self.atoms):
            if np.abs(a - p).max() <= DEFAULT.containment:
                return k
        raise ValueError("projector is not an atom of this algebra")

    def contains(self, p) -> bool:
        """Membership in the full algebra.

        General elements decompose as a subset-sum of generators plus an
        arbitrary subspace of the orthocomplement block.
        """
        try:
            p = _check_projector(p)
        except ValueError:
            return False
        if p.shape[0] != self.dim:
            return False
        perp_part = self.perp @ p @ self.perp
        gen_part = p - perp_part
        recon = np.zeros_like(p)
        for g in self.generators:
            c = float((g @ gen_part).trace().real) / max(1.0, float(g.trace().real))
            if c > 0.5:
                recon = recon + g
        dev_sub = np.abs(perp_part @ perp_part - perp_part).max() if self.perp.any() else 0.0
        return (
            np.abs(recon + perp_part - p).max() <= DEFAULT.containment
            and dev_sub <= DEFAULT.idempotency
        )


def generate_faux_boolean(generators, total_dim: int,
                          max_elements: int = MAX_ELEMENTS) -> FauxBooleanAlgebra:
    """Build the enumerated closure of mutually orthogonal projectors.

    Raises on non-orthogonal input, and when the closure would exceed the
    enumeration cap.
    """
    gens = tuple(_check_projector(g) for g in generators)
    if not gens:
        raise ValueError("need at least one generator")
    if any(g.shape[0] != total_dim for g in gens):
        raise ValueError("generator dimension does not match total_dim")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            dev = np.abs(gens[i] @ gens[j]).max()
            if dev > DEFAULT.projector_orthogonality:
                raise ValueError(
                    f"generators {i} and {j} are not orthogonal (max {dev:.3e})"
                )
    span = sum(gens)
    perp = np.eye(total_dim, dtype=complex) - span
    perp_rank = int(round(float(perp.trace().real)))
    atoms = gens + ((perp,) if perp_rank > 0 else ())
    if 2 ** len(atoms) > max_elements:
        raise ValueError(
            f"closure would have 2^{len(atoms)} elements, above the cap {max_elements}"
        )
    elements = []
    for mask in itertools.product((0, 1), repeat=len(atoms)):
        e = np.zeros((total_dim, total_dim), dtype=complex)
        for bit, a in zip(mask, atoms):
            if bit:
                e = e + a
        elements.append(e)
    return FauxBooleanAlgebra(
        dim=total_dim, generators=gens, perp=perp,
        atoms=atoms, elements=tuple(elements),
    )


@dataclass(frozen=True)
class PropertyState:
    """Ultrafilter on a property algebra, determined by its atom."""

    algebra: FauxBooleanAlgebra
    atom: np.ndarray
    atom_index: int

    def holds(self, p) -> int:
        """1 when the atom's subspace is contained in ``p``, else 0."""
        p = np.asarray(p, dtype=complex)
        return int(np.abs(p @ self.atom - self.atom).max() <= DEFAULT.containment)


def ultrafilter_state(algebra: FauxBooleanAlgebra, atom) -> PropertyState:
    atom = np.asarray(atom, dtype=complex)
    idx = algebra.atom_index(atom)
    return PropertyState(algebra=algebra, atom=algebra.atoms[idx], atom_index=idx)


def composite_generating_set(factor_sets) -> list[tuple[JointIndex, np.ndarray]]:
    """Cartesian product of per-factor projector sets.

    Every combination is kept, including those of probability zero, so the
    joint label set never changes cardinality.  Each factor set must resolve
    its factor's identity (complete after one-dimensional refinement).
    """
    factor_sets = [list(s) for s in factor_sets]
    if not factor_sets:
        raise ValueError("need at least one factor")
    for fs in factor_sets:
        total = sum(np.asarray(p, dtype=complex) for p in fs)
        dev = np.abs(total - np.eye(total.shape[0])).max()
        if dev > DEFAULT.identity_sum:
            raise ValueError(f"factor set does not resolve the identity (max {dev:.3e})")
    out = []
    ranges = [range(len(fs)) for fs in factor_sets]
    for joint in itertools.product(*ranges):
        proj = tensor_product(*(fs[i] for fs, i in zip(factor_sets, joint)))
        out.append((tuple(joint), proj))
    return out


def joint_probability(psi, joint_projector) -> float:
    """Born weight of a joint product projector in a pure state."""
    psi = check_ket(psi)
    p = np.asarray(joint_projector, dtype=complex)
    if p.shape != (psi.size, psi.size):
        raise ValueError(
            f"dimension mismatch: projector {p.shape}, state dim {psi.size}"
        )
    val = np.vdot(psi, p @ psi)
    if abs(val.imag) > DEFAULT.hermiticity:
        raise ValueError(f"projector expectation is not real ({val!r})")
    x = float(val.real)
    if x < -DEFAULT.probability_sum or x > 1 + DEFAULT.probability_sum:
        raise ValueError(f"probability {x!r} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, x))


def joint_distribution(psi, joint_set) -> np.ndarray:
    """Born weights over a composite generating set; they must sum to 1."""
    probs = np.array([joint_probability(psi, proj) for _, proj in joint_set])
    if abs(probs.sum() - 1.0) > DEFAULT.probability_sum:
        raise ValueError(f"joint probabilities sum to {probs.sum()!r}, expected 1")
    return probs
