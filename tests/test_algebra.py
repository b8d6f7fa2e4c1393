import numpy as np
import pytest

from modaldyn.algebra import (composite_generating_set, generate_faux_boolean,
                              join, joint_distribution, joint_probability, meet,
                              orthocomplement, ultrafilter_state)
from modaldyn.hilbert import FactorSpace, partial_trace, projector_from_vector
from modaldyn.pipeline import compute_joint_family
from modaldyn.scenario import BUILTINS

from conftest import SINGLET, random_ket, random_system

E0 = projector_from_vector(np.array([1.0, 0.0]))
E1 = projector_from_vector(np.array([0.0, 1.0]))


class TestGenerateFauxBoolean:
    def test_identity_generator(self):
        alg = generate_faux_boolean([np.eye(2, dtype=complex)], 2)
        assert len(alg.elements) == 2
        norms = sorted(float(np.abs(e).max()) for e in alg.elements)
        assert norms[0] == 0.0 and norms[1] == 1.0

    def test_complete_pair_gives_four_elements(self):
        alg = generate_faux_boolean([E0, E1], 2)
        assert len(alg.elements) == 4
        assert len(alg.atoms) == 2

    def test_single_ray_in_three_dim(self):
        p = np.diag([1.0, 0, 0]).astype(complex)
        alg = generate_faux_boolean([p], 3)
        # Elements: 0, P, its 2-dim orthocomplement, identity.
        assert len(alg.elements) == 4
        r = np.diag([0.0, 1, 1]).astype(complex)
        assert any(np.abs(e - r).max() < 1e-12 for e in alg.elements)
        # Brute-force closure check on the enumerated lattice.
        for a in alg.elements:
            for b in alg.elements:
                for out in (meet(a, b), join(a, b), orthocomplement(a)):
                    assert alg.contains(out)

    def test_membership_accepts_perp_subspaces(self):
        p = np.diag([1.0, 0, 0]).astype(complex)
        alg = generate_faux_boolean([p], 3)
        ray = projector_from_vector(np.array([0, 1.0, 1.0]) / np.sqrt(2))
        assert alg.contains(ray)                     # subspace of the perp block
        assert alg.contains(p + ray)
        tilted = projector_from_vector(np.array([1.0, 1.0, 0]) / np.sqrt(2))
        assert not alg.contains(tilted)              # straddles the generator

    def test_non_orthogonal_rejected(self):
        tilted = projector_from_vector(np.array([1.0, 1.0]) / np.sqrt(2))
        with pytest.raises(ValueError, match="orthogonal"):
            generate_faux_boolean([E0, tilted], 2)

    def test_enumeration_cap(self):
        gens = [projector_from_vector(np.eye(16)[k]) for k in range(16)]
        with pytest.raises(ValueError, match="cap"):
            generate_faux_boolean(gens, 16)


class TestCompositeGeneratingSet:
    def test_two_by_two(self):
        joint = composite_generating_set([[E0, E1], [E0, E1]])
        assert len(joint) == 4
        assert [idx for idx, _ in joint] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_zero_probability_states_kept(self):
        joint = composite_generating_set([[E0, E1], [E0, E1]])
        probs = joint_distribution(SINGLET, joint)
        assert (0, 0) == joint[0][0]
        assert probs[0] == 0.0                       # present even at probability 0
        assert np.allclose(probs, [0, 0.5, 0.5, 0])

    def test_three_factor_cardinality(self):
        f3 = [np.diag([1.0, 0, 0]).astype(complex), np.diag([0.0, 1, 0]).astype(complex),
              np.diag([0.0, 0, 1]).astype(complex)]
        joint = composite_generating_set([[E0, E1], [E0, E1], f3])
        assert len(joint) == 12

    def test_incomplete_factor_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            composite_generating_set([[E0], [E0, E1]])


class TestJointProbability:
    def test_singlet_parallel_is_zero(self):
        assert joint_probability(SINGLET, np.kron(E0, E0)) == 0.0

    def test_singlet_antiparallel_is_half(self):
        assert abs(joint_probability(SINGLET, np.kron(E0, E1)) - 0.5) < 1e-12

    def test_product_state_certainty(self, rng):
        a = random_ket(rng, 2)
        b = random_ket(rng, 3)
        proj = np.kron(projector_from_vector(a), projector_from_vector(b))
        assert abs(joint_probability(np.kron(a, b), proj) - 1.0) < 1e-10

    def test_distribution_sums_to_one(self, rng):
        psi = random_ket(rng, 4)
        joint = composite_generating_set([[E0, E1], [E0, E1]])
        probs = joint_distribution(psi, joint)
        assert abs(probs.sum() - 1.0) <= 1e-10

    def test_accepts_every_ket_check_ket_accepts(self):
        # Norm 1 + 0.8e-10 passes check_ket; its Born weights sum to
        # 1 + 1.6e-10 and must be accepted too.
        psi = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex) * (1 + 0.8e-10)
        joint = composite_generating_set([[E0, E1], [E0, E1]])
        assert joint_probability(psi, np.kron(E1, E1)) > 0.64
        assert abs(joint_distribution(psi, joint).sum() - 1.0) <= 2e-10

    def test_marginal_matches_partial_trace(self, rng):
        psi = random_ket(rng, 4)
        joint = composite_generating_set([[E0, E1], [E0, E1]])
        probs = joint_distribution(psi, joint)
        w = partial_trace(np.outer(psi, psi.conj()), FactorSpace((2, 2)), 0)
        for label, proj in ((0, E0), (1, E1)):
            marg = sum(p for (idx, _), p in zip(joint, probs) if idx[0] == label)
            assert abs(marg - float((w @ proj).trace().real)) <= 1e-9

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            joint_probability(random_ket(rng, 4), E0)


class TestPipelineBornWeights:
    """The pipeline's joint Born weights against the algebra layer: product
    projectors of each factor's tracked directions, their Born weights taken
    one by one from the state."""

    @pytest.mark.parametrize("system, seed", [(name, None) for name in BUILTINS] + [
        ((2, 3), 23), ((3, 2, 2), 322), ((2, 2, 2, 2), 1), ((2, 2, 2, 2), 2)])
    def test_joint_distribution_of_the_tracked_directions(self, system, seed):
        sc = BUILTINS[system]().validate() if seed is None else random_system(seed, system)
        family = compute_joint_family(sc)
        n = len(family.grid)
        for k in (0, n // 3, n // 2, n - 1):
            joint = composite_generating_set(
                [[projector_from_vector(v) for v in traj.vectors[k]]
                 for traj in family.factor_trajectories])
            assert tuple(label for label, _ in joint) == family.states
            expect = joint_distribution(family.psi[k], joint)
            assert np.abs(family.probabilities[k] - expect).max() <= 1e-12


class TestUltrafilterState:
    def setup_method(self):
        self.alg = generate_faux_boolean([E0, E1], 2)
        self.state = ultrafilter_state(self.alg, E0)

    def test_own_atom(self):
        assert self.state.holds(E0) == 1

    def test_orthocomplement(self):
        assert self.state.holds(orthocomplement(E0)) == 0

    def test_join_containment(self):
        assert self.state.holds(join(E0, E1)) == 1

    def test_exactly_one_atom_held(self):
        held = [self.state.holds(a) for a in self.alg.atoms]
        assert sum(held) == 1

    def test_meet_consistency(self):
        for a in self.alg.elements:
            for b in self.alg.elements:
                lhs = self.state.holds(meet(a, b))
                rhs = min(self.state.holds(a), self.state.holds(b))
                assert lhs == rhs

    def test_non_atom_rejected(self):
        tilted = projector_from_vector(np.array([1.0, 1.0]) / np.sqrt(2))
        with pytest.raises(ValueError, match="atom"):
            ultrafilter_state(self.alg, tilted)
