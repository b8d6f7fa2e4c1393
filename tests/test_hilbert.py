import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import modaldyn
from modaldyn.hilbert import (FactorSpace, _psi_rows, evolve_on_grid, partial_trace,
                              projector_from_vector, tensor_product)

from conftest import I2, SINGLET, SX, random_density, random_hermitian, random_ket


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(I2, I2), np.eye(4))

    def test_block_structure(self):
        out = tensor_product(np.diag([1.0, 0.0]), I2)
        assert np.allclose(out, np.diag([1, 1, 0, 0]))

    def test_sigma_x_pair_on_singlet(self):
        # Hand evaluation: sigma_x x sigma_x swaps |01> and |10>.
        op = tensor_product(SX, SX)
        assert np.allclose(op @ SINGLET, -SINGLET, atol=1e-14)

    def test_associativity(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        c = random_hermitian(rng, 2)
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        assert np.allclose(left, right, atol=1e-12)
        assert np.array_equal(tensor_product(a, b, c), left)

    def test_one_or_no_factor(self, rng):
        a = random_hermitian(rng, 3)
        assert np.array_equal(tensor_product(a), a)
        with pytest.raises(ValueError, match="at least one factor"):
            tensor_product()


class TestPartialTrace:
    def test_product_state(self, rng):
        ra = random_density(rng, 2)
        rb = random_density(rng, 3)
        w = np.kron(ra, rb)
        space = FactorSpace((2, 3))
        assert np.allclose(partial_trace(w, space, 0), ra, atol=1e-12)
        assert np.allclose(partial_trace(w, space, 1), rb, atol=1e-12)

    def test_singlet_reduces_to_maximally_mixed(self):
        w = np.outer(SINGLET, SINGLET.conj())
        space = FactorSpace((2, 2))
        for keep in (0, 1):
            assert np.allclose(partial_trace(w, space, keep), I2 / 2, atol=1e-12)

    def test_trace_preserved(self, rng):
        w = random_density(rng, 12)
        red = partial_trace(w, FactorSpace((2, 2, 3)), 2)
        # The reduced state is again a density operator.
        assert np.abs(red - red.conj().T).max() <= 1e-10
        assert abs(red.trace() - 1.0) < 1e-10
        assert np.linalg.eigvalsh(red).min() >= -1e-10

    def test_partner_trace_scaling(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        w = np.kron(a, b)
        red = partial_trace(w, FactorSpace((2, 2)), 0)
        assert np.allclose(red, a * b.trace(), atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            partial_trace(random_density(rng, 4), FactorSpace((2, 3)), 0)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2, 4), (2, 2, 2, 2)])
    def test_stack_bit_identical_to_per_node(self, rng, dims):
        # Pure states as the pipeline builds them, plus one leading axis more.
        space = FactorSpace(dims)
        psi = np.stack([random_ket(rng, space.dim) for _ in range(6)]).reshape(2, 3, -1)
        pure = psi[..., :, None] * psi[..., None, :].conj()
        for keep in range(len(dims)):
            stacked = partial_trace(pure, space, keep)
            assert stacked.shape == (2, 3, dims[keep], dims[keep])
            for i in range(2):
                for j in range(3):
                    one = partial_trace(np.outer(psi[i, j], psi[i, j].conj()), space, keep)
                    assert np.array_equal(stacked[i, j], one)

    def test_stack_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            partial_trace(np.zeros((3, 4, 2)), FactorSpace((2, 2)), 0)

    def test_track_names_non_hermitian_node(self, rng):
        from modaldyn.spectral import track
        states = np.stack([random_density(rng, 3) for _ in range(5)])
        states[3, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="node 3 is not Hermitian"):
            track(states, np.linspace(0.0, 1.0, 5))
        states[3] = states[2]
        states[1, 2, 2] = np.nan
        with pytest.raises(ValueError, match="node 1: matrix entries must be finite"):
            track(states, np.linspace(0.0, 1.0, 5))


def evolve(psi, h, t):
    """The state at the single time ``t``."""
    return evolve_on_grid(psi, h, [t])[0]


class TestEvolveState:
    def test_zero_hamiltonian(self, rng):
        psi = random_ket(rng, 4)
        assert np.allclose(evolve(psi, np.zeros((4, 4)), 2.3), psi)

    def test_eigenstate_phase(self):
        h = np.diag([1.5, -0.5]).astype(complex)
        psi = np.array([1.0, 0.0], dtype=complex)
        out = evolve(psi, h, 0.7)
        assert np.allclose(out, np.exp(-1j * 1.5 * 0.7) * psi, atol=1e-12)

    def test_two_level_rotation_amplitudes(self):
        # Generator -w sigma_x sends |0> to cos(wt)|0> + i sin(wt)|1>.
        w = 1.3
        psi = evolve(np.array([1.0, 0]), -w * SX, 0.4)
        assert np.allclose(psi, [np.cos(w * 0.4), 1j * np.sin(w * 0.4)], atol=1e-12)

    def test_norm_preserved(self, rng):
        h = random_hermitian(rng, 5)
        psi = evolve(random_ket(rng, 5), h, 3.1)
        assert abs(np.linalg.norm(psi) - 1) < 1e-10

    def test_composition(self, rng):
        h = random_hermitian(rng, 4)
        psi = random_ket(rng, 4)
        one = evolve(evolve(psi, h, 0.4), h, 0.8)
        two = evolve(psi, h, 1.2)
        assert np.abs(one - two).max() <= 1e-9

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(random_ket(rng, 2), np.array([[0, 1], [0, 0]]), 1.0)

    def test_grid_evolution_matches_single_steps(self, rng):
        # Each node of one grid call is exp(-iHt) psi, taken independently.
        h = random_hermitian(rng, 3)
        psi = random_ket(rng, 3)
        times = np.linspace(0, 2, 9)
        batch = evolve_on_grid(psi, h, times)
        for k, t in enumerate(times):
            assert np.allclose(batch[k], expm(-1j * h * t) @ psi, atol=1e-12)


# psi at dims 4 to 64 over 5001 times, and the seeded (2, 2, 2, 2) joint
# family's psi and Born weights, as SHA-256 digests.
DIGESTS = """
import hashlib
import numpy as np
from conftest import random_hermitian, random_ket, random_system
from modaldyn.hilbert import evolve_on_grid
from modaldyn.pipeline import compute_joint_family
rng = np.random.default_rng(5)
arrays = [evolve_on_grid(random_ket(rng, dim), random_hermitian(rng, dim),
                         np.linspace(0.0, 1.0, 5001)) for dim in (4, 8, 16, 32, 64)]
family = compute_joint_family(random_system(2222, (2, 2, 2, 2), t1=1.0))
arrays += [family.psi, family.probabilities]
print(" ".join(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays))
"""


class TestBlasThreads:
    """psi is formed in row blocks that stay on the calling BLAS thread, so
    its bits, and the Born weights', do not depend on the thread count."""

    @pytest.mark.parametrize("dim", [4, 8, 16, 32, 64])
    def test_row_blocks_fit_the_budget(self, dim):
        rows = _psi_rows(dim)
        assert rows & (rows - 1) == 0 and rows * dim * dim <= 2 ** 14 < 2 * rows * dim * dim

    def test_one_thread_and_two_give_the_same_bits(self):
        src = str(Path(modaldyn.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, str(Path(__file__).parent),
                                             os.environ.get("PYTHONPATH")]))
        runs = [subprocess.run([sys.executable, "-c", DIGESTS], capture_output=True, text=True,
                               timeout=300, env={**os.environ, "PYTHONPATH": path,
                                                 "OPENBLAS_NUM_THREADS": threads})
                for threads in ("1", "2")]
        for done in runs:
            assert done.returncode == 0, done.stderr
        assert runs[0].stdout == runs[1].stdout


class TestFactorSpace:
    def test_roundtrip(self):
        space = FactorSpace((2, 3, 2))
        assert space.dim == 12
        for flat in range(space.dim):
            joint = tuple(int(k) for k in np.unravel_index(flat, space.factor_dims))
            assert int(np.ravel_multi_index(joint, space.factor_dims)) == flat
            assert space.joint_indices()[flat] == joint
        assert space.joint_indices()[0] == (0, 0, 0)
        assert space.joint_indices()[-1] == (1, 2, 1)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            FactorSpace((2, 0))


def test_projector_from_vector(rng):
    v = random_ket(rng, 3)
    p = projector_from_vector(v)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert abs(p.trace() - 1) < 1e-12
