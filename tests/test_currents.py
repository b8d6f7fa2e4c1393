import itertools
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from modaldyn import currents, pipeline
from modaldyn.currents import CurrentMatrix, continuity_residual, current_matrix
from modaldyn.kinetics import rate_matrix
from modaldyn.hilbert import projector_from_vector
from modaldyn.pipeline import compute_currents, compute_joint_family, compute_rates, run
from modaldyn.scenario import BUILTINS, EnsembleSpec, Scenario, TimeSpec
from scipy.integrate import trapezoid

from conftest import (five_point, joined_system, least_norm_current_oracle, random_hermitian,
                      random_ket, random_system, traced_peak)


def orthonormal_vectors(rng, dim):
    """Rows: an orthonormal basis, the directions of a rank-1 projector family."""
    q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    return q.T.copy()


def dense(vectors):
    return np.stack([projector_from_vector(v) for v in vectors])


class TestCurrentMatrix:
    def test_constructors_are_exactly_antisymmetric(self, rng):
        psi, h, vecs = random_ket(rng, 4), random_hermitian(rng, 4), orthonormal_vectors(rng, 4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for cm in (current_matrix("minimal_flow", psi, h, [vecs], [a - a.conj().T]),
                   current_matrix("static_schrodinger", psi, h, [vecs]),
                   current_matrix("generalized_schrodinger", psi, h, [vecs], [a - a.conj().T]),
                   current_matrix("minimal_flow_like", psi, h, [vecs], [a - a.conj().T])):
            assert np.array_equal(cm.matrix, -cm.matrix.T)
            assert np.all(np.diag(cm.matrix) == 0)

    def test_flow_accessor(self):
        # Entry [..., j, i] of the matrix is the flow i -> j, per node of a stack.
        up = np.triu(np.arange(9.0).reshape(3, 3), 1)
        stack = CurrentMatrix(np.stack([up - up.T, 2 * (up - up.T)]))
        assert stack.size == 3
        assert stack.matrix[0, 0, 1] == 1.0
        assert stack.matrix[0, 1, 0] == -1.0
        assert stack.matrix[0, 2, 2] == 0.0
        assert np.array_equal(stack.matrix[..., 1, 0], [-1.0, -2.0])

    def test_rejects_inexact_antisymmetry(self, rng):
        up = np.triu(rng.normal(size=(2, 3, 3)), 1)
        nudged = up - np.swapaxes(up, 1, 2)
        nudged[1, 2, 0] = np.nextafter(nudged[1, 2, 0], np.inf)    # one ulp off at node 1
        diagonal = np.diag([0.0, 1e-300, 0.0])
        # The strict upper triangle alone, the old storage, is not a current.
        for bad in (up, nudged, diagonal, np.ones((2, 2))):
            with pytest.raises(ValueError, match="exactly antisymmetric"):
                CurrentMatrix(bad)
        with pytest.raises(ValueError, match="square"):
            CurrentMatrix(np.zeros((2, 3)))

    def test_rejects_asymmetry_in_the_last_slice(self, rng):
        # 40 nodes of (32, 32) floats are checked as two slices of at most 256 KiB.
        up = np.triu(rng.normal(size=(40, 32, 32)), 1)
        current = up - np.swapaxes(up, 1, 2)
        assert CurrentMatrix(current).size == 32
        current[-1, 31, 0] = np.nextafter(current[-1, 31, 0], np.inf)
        with pytest.raises(ValueError, match="exactly antisymmetric"):
            CurrentMatrix(current)


def builtin_family(name):
    return compute_joint_family(BUILTINS[name]().validate())


def exact_pdot(family):
    """The family's exact Born derivative: the paired current's row sums."""
    return compute_currents(family, "generalized_schrodinger").matrix.sum(axis=-1)


class TestMinimalFlow:
    """The least-norm current of the family's exact Born derivative."""

    def test_zero_pdot(self):
        # The singlet under H = 0: nothing moves, so no current flows.
        cm = compute_currents(builtin_family("singlet"), "minimal_flow")
        assert not cm.matrix.any()

    def test_two_state_crossing_family(self):
        # easyexample rotates |00> into |11>: p = (cos^2 t, 0, 0, sin^2 t), so
        # pdot = (-sin 2t, 0, 0, sin 2t) and j_ji = (pdot_j - pdot_i) / 4.
        family = builtin_family("easyexample")
        s = np.sin(2.0 * family.grid)
        pdot = np.stack([-s, 0.0 * s, 0.0 * s, s], axis=1)
        cm = compute_currents(family, "minimal_flow")
        assert np.abs(cm.matrix - (pdot[:, :, None] - pdot[:, None, :]) / 4).max() <= 1e-12

    def test_matches_least_norm_oracle(self):
        for family in (builtin_family("interacting-two-spin"),
                       builtin_family("measured-possessed-property"),
                       compute_joint_family(random_system(3, (2, 2, 2)))):
            cm, pdot = compute_currents(family, "minimal_flow"), exact_pdot(family)
            for k in (0, 1, 97, len(family.grid) // 2, len(family.grid) - 1):
                assert np.abs(cm.matrix[k] - least_norm_current_oracle(pdot[k])).max() <= 1e-12

    def test_continuity_exact(self):
        family = compute_joint_family(random_system(3, (2, 2, 2)))
        cm = compute_currents(family, "minimal_flow")
        assert continuity_residual(cm, exact_pdot(family)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_continuity_reads_the_generalized_currents_error(self, name):
        # Both currents carry the exact derivative, so continuity measures the
        # 3-point stencil alone, and master the rate layer's rounding.
        sc = BUILTINS[name](n_paths=200)
        minimal = run(sc, report_only=True, current="minimal_flow").report
        generalized = run(sc, report_only=True, current="generalized_schrodinger").report
        assert minimal.continuity_residual <= 2 * generalized.continuity_residual
        assert generalized.continuity_residual <= 2 * minimal.continuity_residual
        assert minimal.master_residual <= 1e-13


class TestMinimalFlowFromPaired:
    """The minimal-flow current is the spread of the paired current's row
    sums bit for bit, whatever the node blocks: its one construction path
    is the paired current's."""

    @pytest.mark.parametrize("nodes_per_block", [None, 3])
    @pytest.mark.parametrize("name", [*sorted(BUILTINS), "random-2x2x2"])
    def test_spread_of_the_paired_row_sums(self, monkeypatch, nodes_per_block, name):
        sc = random_system(3, (2, 2, 2)) if name == "random-2x2x2" else BUILTINS[name]()
        family = compute_joint_family(sc.validate())
        if nodes_per_block:
            dim = sc.space.dim
            monkeypatch.setattr(currents, "_BLOCK_BYTES", nodes_per_block * dim * dim * 16)
        r = exact_pdot(family)
        spread = (r[:, :, None] - r[:, None, :]) / r.shape[-1]
        assert np.array_equal(compute_currents(family, "minimal_flow").matrix, spread)


class TestBornDerivativeMutation:
    """The stencil's Born derivative scaled by 1.5 (one defect, in the
    continuity target alone) must fail the continuity check of a
    minimal-flow run while its master check keeps every bit."""

    def test_scaled_target_fails_continuity_alone(self, monkeypatch):
        sc = BUILTINS["measured-possessed-property"](n_paths=2000)
        honest = run(sc, report_only=True, current="minimal_flow").report
        target = pipeline.pdot_target
        monkeypatch.setattr(pipeline, "pdot_target", lambda family: 1.5 * target(family))
        mutant = run(sc, report_only=True, current="minimal_flow").report
        assert honest.continuity_residual <= 1e-5 < mutant.continuity_residual
        assert mutant.master_residual == honest.master_residual
        assert any(f.startswith("continuity residual") for f in mutant.failures(sc.thresholds))


class TestStaticSchrodinger:
    def test_diagonal_hamiltonian_gives_zero(self, rng):
        psi = random_ket(rng, 3)
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        cm = current_matrix("static_schrodinger", psi, h, [np.eye(3)])
        assert np.abs(cm.matrix).max() <= 1e-14

    def test_matches_elementwise_summation_oracle(self, rng):
        dim = 4
        psi = random_ket(rng, dim)
        h = random_hermitian(rng, dim)
        vecs = orthonormal_vectors(rng, dim)
        cm = current_matrix("static_schrodinger", psi, h, [vecs])
        for a in range(dim):
            for b in range(dim):
                if a == b:
                    continue
                braket = np.vdot(psi, vecs[a]) * np.vdot(vecs[a], h @ vecs[b]) \
                    * np.vdot(vecs[b], psi)
                assert abs(cm.matrix[a, b] - 2 * braket.imag) <= 1e-10

    def test_continuity_against_commutator_pdot(self, rng):
        dim = 4
        psi = random_ket(rng, dim)
        h = random_hermitian(rng, dim)
        vecs = orthonormal_vectors(rng, dim)
        cm = current_matrix("static_schrodinger", psi, h, [vecs])
        pdot = np.array([2 * np.vdot(psi, p @ h @ psi).imag for p in dense(vecs)])
        assert continuity_residual(cm, pdot) <= 1e-10

    def test_non_orthogonal_rejected(self, rng):
        psi = random_ket(rng, 2)
        tilted = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([[1.0], [np.sqrt(2)]])
        with pytest.raises(ValueError, match="orthogonal"):
            current_matrix("static_schrodinger", psi, random_hermitian(rng, 2), [tilted])

    def test_non_orthogonal_factor_rejected(self, rng):
        # Each factor's basis is checked, here the second of a (2, 2) system.
        tilted = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([[1.0], [np.sqrt(2)]])
        with pytest.raises(ValueError, match="orthogonal"):
            current_matrix("static_schrodinger", random_ket(rng, 4), random_hermitian(rng, 4),
                           [np.eye(2), tilted])

    def test_factors_must_cover_psi(self, rng):
        with pytest.raises(ValueError, match="square"):
            current_matrix("static_schrodinger", random_ket(rng, 4), random_hermitian(rng, 4),
                           [np.eye(2), np.eye(3)])


def analytic_rotation_setup(rng, dim):
    """Projector family P_i(t) = U P_i U^dag with exact derivative -i[G, P].

    Returns H, the rotated directions (rows), their connection
    ``<v_b|-i G|v_a>`` and the dense projectors and their derivatives.
    """
    h = random_hermitian(rng, dim)
    g = random_hermitian(rng, dim)      # rotation generator, independent of h
    t = 0.3
    import scipy.linalg
    u = scipy.linalg.expm(-1j * g * t)
    vecs = orthonormal_vectors(rng, dim) @ u.T
    projs = dense(vecs)
    derivs = np.stack([-1j * (g @ p - p @ g) for p in projs])
    return h, vecs, -1j * vecs.conj() @ g @ vecs.T, projs, derivs


class TestGeneralizedSchrodinger:
    def test_reduces_to_static_when_frozen(self, rng):
        dim = 3
        psi = random_ket(rng, dim)
        h = random_hermitian(rng, dim)
        vecs = orthonormal_vectors(rng, dim)
        gen = current_matrix("generalized_schrodinger", psi, h, [vecs], [np.zeros_like(vecs)])
        stat = current_matrix("static_schrodinger", psi, h, [vecs])
        assert np.abs(gen.matrix - stat.matrix).max() <= 1e-12

    def test_paired_term_matches_conjugate_sum(self, rng):
        dim = 4
        psi = random_ket(rng, dim)
        h, vecs, conn, projs, derivs = analytic_rotation_setup(rng, dim)
        gen = current_matrix("generalized_schrodinger", psi, h, [vecs], [conn])
        stat = current_matrix("static_schrodinger", psi, h, [vecs])
        extra = gen.matrix - stat.matrix
        for a in range(dim):
            for b in range(dim):
                if a == b:
                    continue
                z = np.vdot(psi, derivs[a] @ projs[b] @ psi)
                zc = np.vdot(psi, projs[b] @ derivs[a] @ psi)
                assert abs(extra[a, b] - (z + zc).real) <= 1e-10

    def test_continuity_against_full_pdot(self, rng):
        dim = 4
        psi = random_ket(rng, dim)
        h, vecs, conn, projs, derivs = analytic_rotation_setup(rng, dim)
        gen = current_matrix("generalized_schrodinger", psi, h, [vecs], [conn])
        pdot = np.array([
            2 * np.vdot(psi, projs[i] @ h @ psi).imag
            + np.vdot(psi, derivs[i] @ psi).real
            for i in range(dim)
        ])
        assert continuity_residual(gen, pdot) <= 1e-10

    def test_minimal_flow_like_continuity(self, rng):
        dim = 4
        psi = random_ket(rng, dim)
        h, vecs, conn, projs, derivs = analytic_rotation_setup(rng, dim)
        gen = current_matrix("minimal_flow_like", psi, h, [vecs], [conn])
        pdot = np.array([
            2 * np.vdot(psi, projs[i] @ h @ psi).imag
            + np.vdot(psi, derivs[i] @ psi).real
            for i in range(dim)
        ])
        assert continuity_residual(gen, pdot) <= 1e-10

    def test_zero_probability_rows_vanish(self, rng):
        # State support on two of four projectors: the other rows must vanish.
        dim = 4
        h, vecs, conn, projs, derivs = analytic_rotation_setup(rng, dim)
        psi = 0.6 * vecs[0] + 0.8j * vecs[1]
        gen = current_matrix("generalized_schrodinger", psi, h, [vecs], [conn]).matrix
        assert np.abs(gen[2, :]).max() <= 1e-9
        assert np.abs(gen[:, 2]).max() <= 1e-9
        assert np.abs(gen[3, :]).max() <= 1e-9

    def test_exactly_zero_amplitudes_carry_no_current(self, rng):
        # Directions e_0..e_3 and psi on e_0, e_1 only: the amplitudes of
        # labels 2 and 3 are exactly zero, and so are their rows.
        h, _vecs, conn, _projs, _derivs = analytic_rotation_setup(rng, 4)
        psi = np.array([0.6, 0.8j, 0.0, 0.0])
        gen = current_matrix("generalized_schrodinger", psi, h, [np.eye(4)], [conn]).matrix
        assert not gen[2:].any() and not gen[:, 2:].any()

    def test_non_anti_hermitian_connections_rejected(self, rng):
        dim = 3
        psi = random_ket(rng, dim)
        h = random_hermitian(rng, dim)
        vecs = orthonormal_vectors(rng, dim)
        with pytest.raises(ValueError, match="anti-Hermitian"):
            current_matrix("generalized_schrodinger", psi, h, [vecs], [random_hermitian(rng, dim)])

    def test_connection_shapes_must_match_factors(self, rng):
        psi = random_ket(rng, 4)
        with pytest.raises(ValueError, match="connections of shapes"):
            current_matrix("generalized_schrodinger", psi, random_hermitian(rng, 4),
                           [np.eye(2), np.eye(2)], [np.zeros((2, 2))])

    def test_unknown_extra_term(self, rng):
        # The 0.3 extra-term values are no kinds: "paired" is spelt
        # "generalized_schrodinger" and the other term is its own kind.
        dim = 2
        psi = random_ket(rng, dim)
        vecs = orthonormal_vectors(rng, dim)
        with pytest.raises(ValueError, match="unknown current kind 'paired'"):
            current_matrix("paired", psi, np.zeros((2, 2)), [vecs], [np.zeros_like(vecs)])


class TestContinuityResidual:
    def test_zero_current(self):
        cm = CurrentMatrix(np.zeros((3, 3)))
        pdot = np.array([0.2, -0.5, 0.3])
        assert continuity_residual(cm, pdot) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            continuity_residual(CurrentMatrix(np.zeros((2, 2))), np.zeros(3))


def generic_two_by_three(rng):
    """A random (2, 3) system, H and psi drawn from ``rng``, over t in [0, 0.5]."""
    h = random_hermitian(rng, 6)
    psi = random_ket(rng, 6)
    return Scenario(name="generic-2x3", factor_dims=(2, 3), hamiltonian=h,
                    initial_state=psi, time=TimeSpec(0.0, 0.5, 1e-3),
                    ensemble=EnsembleSpec(2000, 11, (0.25, 0.5))).validate()


class TestDenseOracle:
    """Pipeline currents against dense projectors and their exact
    derivatives, built node by node with ``np.kron``: on a generic (2, 3)
    system, where psi has Schmidt rank 2 and four of the six joint states
    carry probability zero, and on a (2, 2, 2) system, where the rotation
    term does not vanish (with two factors a pure state's does)."""

    NODES = [0, 1, 250, 499, 500]

    @staticmethod
    def dense_node(fam, k):
        """Joint directions V (rows), the joint connection Gamma = sum_k 1
        (x) A_k (x) 1, and Pdot_a from Vdot = V Gamma."""
        vecs = [t.vectors[k] for t in fam.factor_trajectories]
        v = np.array([reduce(np.kron, rows) for rows in itertools.product(*vecs)])
        eyes = [np.eye(len(u)) for u in vecs]
        gamma = sum(reduce(np.kron, eyes[:j] + [c[k]] + eyes[j + 1:])
                    for j, c in enumerate(fam.connections))
        vdot = gamma.T @ v                       # row a: sum_b Gamma[b, a] v_b
        pdot = np.einsum("ax,ay->axy", vdot, v.conj())
        return v, gamma, pdot + pdot.conj().swapaxes(1, 2)

    def test_currents_match_dense_projectors(self, rng):
        self.check(generic_two_by_three(rng), zero_states=4)

    def test_three_factor_currents_match_dense_projectors(self):
        self.check(random_system(5, (2, 2, 2), t1=0.5), zero_states=0)

    def check(self, sc, zero_states):
        fam = compute_joint_family(sc)
        h = sc.hamiltonian
        d = len(fam.states)
        zero = (fam.probabilities[self.NODES] <= 1e-12).sum(axis=1)
        assert zero.tolist() == [zero_states] * len(self.NODES)

        def antisymmetric(f):
            up = np.triu(f, 1)
            return up - up.T

        for kind in ("minimal_flow", "static_schrodinger", "generalized_schrodinger",
                     "minimal_flow_like"):
            got = compute_currents(fam, kind=kind).matrix
            for k in self.NODES:
                psi = fam.psi[k]
                v, gamma, pd = self.dense_node(fam, k)
                p = np.einsum("ax,ay->axy", v, v.conj())
                if kind == "minimal_flow":
                    # The chain rule: pdot_a = 2 Re(conj(c_a) cdot_a), with
                    # cdot_a = <v_a|-i H psi> + sum_b conj(Gamma_ba) c_b.
                    c = v.conj() @ psi
                    cdot = v.conj() @ (-1j * (h @ psi)) + gamma.conj().T @ c
                    pdot = 2.0 * (c.conj() * cdot).real
                    expect = antisymmetric((pdot[:, None] - pdot[None, :]) / d)
                    assert np.abs(got[k] - expect).max() <= 1e-12
                    continue
                g = np.einsum("x,axy,yz,bzw,w->ab", psi.conj(), p, h, p, psi)
                f = 2.0 * g.imag
                if kind == "generalized_schrodinger":
                    m = 2.0 * np.einsum("x,axy,byz,z->ab", psi.conj(), pd, p, psi).real
                    f = f + 0.5 * (m - m.T)
                elif kind == "minimal_flow_like":
                    dexp = np.einsum("x,axy,y->a", psi.conj(), pd, psi).real
                    f = f + (dexp[:, None] - dexp[None, :]) / d
                assert np.abs(got[k] - antisymmetric(f)).max() <= 1e-12, (kind, k)

    def test_run_jump_count_identity(self, rng):
        # Mean jump count against its exact value, the integral of
        # sum_i p_i * exit_i: 6 standard errors plus the 1/N count resolution.
        result = run(generic_two_by_three(rng), report_only=True)
        jumps = np.array([p.jump_count for p in result.paths], dtype=float)
        exits = np.clip(-np.einsum("nii->ni", result.rate_trajectory.matrices), 0.0, None)
        predicted = trapezoid((result.family.probabilities * exits).sum(axis=1),
                              result.family.grid)
        se = jumps.std(ddof=1) / np.sqrt(len(jumps))
        assert len(jumps) == 2000
        assert abs(jumps.mean() - predicted) <= 6 * se + 1 / len(jumps)


def labels_apart(states):
    """(D, D) count of the factors in which two joint labels differ."""
    s = np.array(states)
    return (s[:, None, :] != s[None, :, :]).sum(axis=-1)


class TestExactCurrent:
    """The generalized current against the Born weights, with no stencil in
    the current: its divergence must match a 5-point derivative of the
    weights on a grid eight times finer within 1e-6.  (On a grid four times
    finer the (2, 2, 2, 2) draw misses by 1.1e-6, and by 16 times less at
    eight: the reference's own h^4 error.)"""

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 2)])
    def test_divergence_matches_fine_born_derivative(self, dims):
        sc = random_system(1, dims)
        fine = compute_joint_family(replace(sc, time=TimeSpec(0.0, 0.2, 1.25e-4)))
        born = five_point(fine.probabilities, 1.25e-4)[6::8]  # coarse nodes 1 .. n-2
        family = compute_joint_family(sc)
        for kind in ("generalized_schrodinger", "minimal_flow_like"):
            current = compute_currents(family, kind)
            divergence = current.matrix.sum(axis=-1)[1:-1]
            assert np.abs(divergence - born).max() <= 1e-6, kind

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2), (2, 2, 2, 2)])
    def test_rotation_term_only_on_one_factor_pairs(self, dims):
        # With two factors a pure state's rotation term vanishes on every
        # pair (Schmidt form), so only three or more factors can show it.
        family = compute_joint_family(random_system(2, dims))
        extra = (compute_currents(family, "generalized_schrodinger").matrix
                 - compute_currents(family, "static_schrodinger").matrix)
        apart = labels_apart(family.states)
        assert not extra[:, apart >= 2].any()
        if len(dims) > 2:
            assert np.abs(extra[:, np.triu(apart == 1, 1)]).max() > 1e-3


class TestIndependentParts:
    """Two systems joined without interaction: every layer is predicted by
    the two smaller runs.  Bounds are rounding: 1e-13 on weights and on
    currents, and 1e-10 relative on Bell rates, which divide by p."""

    @pytest.fixture(params=[((2, 2), (2, 2)), ((2, 3), (2, 2))], ids=["2x2+2x2", "2x3+2x2"])
    def runs(self, request):
        whole, one, two = joined_system(3, *request.param)
        return [compute_joint_family(sc) for sc in (whole, one, two)]

    def test_born_weights_are_products(self, runs):
        whole, one, two = runs
        product = one.probabilities[:, :, None] * two.probabilities[:, None, :]
        assert np.abs(whole.probabilities - product.reshape(whole.probabilities.shape)).max() \
            <= 1e-13

    def test_no_current_between_parts(self, runs):
        whole, one, two = runs
        d1, d2 = len(one.states), len(two.states)
        both = np.not_equal.outer(np.arange(d1), np.arange(d1))[:, None, :, None] \
            & np.not_equal.outer(np.arange(d2), np.arange(d2))[None, :, None, :]
        both = both.reshape(d1 * d2, d1 * d2)
        for kind in ("static_schrodinger", "generalized_schrodinger", "minimal_flow_like"):
            full = compute_currents(whole, kind).matrix
            assert np.abs(full[:, both]).max() <= 1e-13, kind

    def test_bell_rates_are_kron_sums(self, runs):
        whole, one, two = runs
        rates = [compute_rates(compute_currents(fam, "generalized_schrodinger"),
                               fam.probabilities).matrix for fam in runs]
        d1, d2 = len(one.states), len(two.states)
        predicted = (np.einsum("nij,kl->nikjl", rates[1], np.eye(d2))
                     + np.einsum("ij,nkl->nikjl", np.eye(d1), rates[2]))
        predicted = predicted.reshape(rates[0].shape)
        occupied = whole.probabilities > 1e-6
        pairs = occupied[:, :, None] & occupied[:, None, :]
        miss = np.abs(rates[0] - predicted)[pairs]
        assert (pairs & ~np.eye(len(whole.states), dtype=bool)).any()
        assert (miss <= 1e-10 * np.maximum(1.0, np.abs(predicted[pairs]))).all(), miss.max()


class TestIndependentPaths:
    """Paths of the joined system: an event changes both parts when the labels
    of both parts differ before and after it.  The Schrodinger-type currents
    carry nothing between such labels (``TestIndependentParts``), so no event
    may change both parts; the minimal-flow current couples the parts, and at
    least a tenth of its events must.  Bounds fixed before the first run."""

    @pytest.mark.parametrize("current", ["static_schrodinger", "generalized_schrodinger",
                                         "minimal_flow"])
    @pytest.mark.parametrize("dims2", [(2, 2), (2, 2, 2)], ids=["2x2+2x2", "2x2+2x2x2"])
    def test_events_changing_both_parts(self, dims2, current):
        whole, one, _two = joined_system(3, (2, 2), dims2)
        paths = run(whole, report_only=True, n_paths=2000, current=current).paths
        labels = np.array(paths.states)
        moved = paths.jump_counts > 0
        before = np.concatenate(([0], paths.dest[:-1]))
        before[paths.offsets[:-1][moved]] = paths.initial[moved]
        split = len(one.factor_dims)
        differ = labels[before] != labels[paths.dest]
        both = differ[:, :split].any(axis=1) & differ[:, split:].any(axis=1)
        assert len(both) > 0
        if current == "minimal_flow":
            assert both.sum() >= 0.1 * len(both), (both.sum(), len(both))
            assert paths.relays > 0        # relays draw from the stored current
        else:
            assert not both.any(), (both.sum(), len(both))


def embed(op, dims, support):
    """``op`` acting on the factors ``support``, in that order, and the
    identity on the others."""
    rest = [k for k in range(len(dims)) if k not in support]
    order = [*support, *rest]
    full = np.kron(op, np.eye(int(np.prod([dims[k] for k in rest]))))
    back = list(np.argsort(order))
    tensor = full.reshape([dims[k] for k in order] * 2)
    dim = int(np.prod(dims))
    return tensor.transpose(back + [len(dims) + k for k in back]).reshape(dim, dim)


# Factor dimensions and bonds of three interaction graphs.
GRAPHS = {
    "chain": ((2, 3, 2, 2), ((0, 1), (1, 2), (2, 3))),
    "ring": ((2, 2, 3, 2), ((0, 1), (1, 2), (2, 3), (3, 0))),
    "star": ((3, 2, 2, 2), ((0, 1), (0, 2), (0, 3))),
}


def on_graph(states, bonds):
    """(D, D) mask of the label pairs that differ within one factor or one bond."""
    s = np.array(states)
    differ = s[:, None, :] != s[None, :, :]
    mask = differ.sum(axis=-1) <= 1
    for bond in bonds:
        mask |= ~np.delete(differ, bond, axis=-1).any(axis=-1)
    return mask


class TestInteractionGraph:
    """A local Hamiltonian, a random term on each bond of a graph and on each
    factor, from a random state.  Factor directions are orthonormal, so
    <v_a|H|v_b> vanishes unless a and b differ within one term's factors, and
    the rotation term links labels that differ in one factor only.  So the
    static and generalized currents and their Bell rates vanish off the graph,
    and no path event leaves it.  The minimal-flow current and the general
    rates at c > 0, whose c p_j links every pair, are the negative controls:
    they must leave it.  Bounds fixed before the first run: 1e-13 on currents
    and on the flux t_ji p_i of a Bell rate off the graph, and a control
    leaves the graph with an entry above 1e-6 there.  A control's paths leave
    it with at least half the share of events its rates predict,
    int sum_off t_ji p_i / int sum t_ji p_i: at c = 1 the general rates
    predict only 5-7 % on these graphs."""

    @pytest.fixture(scope="class", params=list(GRAPHS))
    def system(self, request):
        dims, bonds = GRAPHS[request.param]
        rng = np.random.default_rng(13)
        h = sum(embed(random_hermitian(rng, dims[a] * dims[b]), dims, (a, b)) for a, b in bonds)
        h = h + sum(embed(random_hermitian(rng, d), dims, (k,)) for k, d in enumerate(dims))
        sc = Scenario(name=request.param, factor_dims=dims, hamiltonian=h,
                      initial_state=random_ket(rng, len(h)), time=TimeSpec(0.0, 0.2, 1e-3),
                      ensemble=EnsembleSpec(2000, 0, (0.1, 0.2))).validate()
        return sc, bonds

    def test_currents_and_rates_vanish_off_the_graph(self, system):
        sc, bonds = system
        family = compute_joint_family(sc)
        off = ~on_graph(family.states, bonds)
        p = family.probabilities
        assert off.any()
        for kind in ("static_schrodinger", "generalized_schrodinger"):
            current = compute_currents(family, kind)
            assert np.abs(current.matrix[:, off]).max() <= 1e-13, kind
            rates = compute_rates(current, p)
            assert not rates.pole_mask[:, off].any()
            assert (rates.matrix * p[:, None, :])[:, off].max() <= 1e-13, kind
        assert np.abs(compute_currents(family, "minimal_flow").matrix[:, off]).max() > 1e-6
        general = compute_rates(compute_currents(family), p, 1.0)
        assert general.matrix[:, off].max() > 1e-6

    @pytest.mark.parametrize("dynamics", [("static_schrodinger", 0.0),
                                          ("generalized_schrodinger", 0.0),
                                          ("minimal_flow", 0.0),
                                          ("generalized_schrodinger", 1.0)],
                             ids=["static", "generalized", "minimal_flow", "general"])
    def test_path_events_stay_on_the_graph(self, system, dynamics):
        sc, bonds = system
        current, c = dynamics
        sc = replace(sc, current=current, general_rate_offset=c)
        result = run(sc, report_only=True)
        paths = result.paths
        moved = paths.jump_counts > 0
        before = np.concatenate(([0], paths.dest[:-1]))
        before[paths.offsets[:-1][moved]] = paths.initial[moved]
        off = ~on_graph(paths.states, bonds)
        leave = off[before, paths.dest]
        assert len(leave) > 0
        if current == "minimal_flow" or c:
            flux = result.rate_trajectory.matrices * result.family.probabilities[:, None, :]
            flux[:, np.eye(len(off), dtype=bool)] = 0.0
            share = (trapezoid(flux[:, off].sum(axis=-1), result.family.grid)
                     / trapezoid(flux.sum(axis=(-2, -1)), result.family.grid))
            assert leave.mean() >= 0.5 * share, (leave.sum(), len(leave), share)
        else:
            assert not leave.any(), (leave.sum(), len(leave))


@pytest.mark.parametrize("size", [((2, 2, 2, 2), 1.0, 1001), ((2,) * 6, 0.2, 201)],
                         ids=["dim16", "dim64"])
class TestMemory:
    """Peak allocations of the per-node stages, in units of one (n, D, dim)
    complex stack, on a (2, 2, 2, 2) system over 1001 nodes and a (2,)*6
    system over 201.  Each stage runs over node blocks of at most 256 KiB (a
    sixteenth of a stack at dim 16, a fiftieth at dim 64) and fills outputs
    allocated once for the grid.  The joint family returns no stack: psi
    and each node block take at most a sixteenth of one, and the tracked
    per-factor trajectories and connections are (n, 2, 2).  The currents and
    the rates return (n, D, D) float tables, half a stack each (the rates
    add a boolean pole mask, an eighth of a table).  Their inputs are
    checked once over all nodes, and each record once without a copy of
    it: the current's exact antisymmetry over 256 KiB slices, the rates'
    signs on views, and each NaN test on one boolean table, an eighth of a
    table.  So neither stage holds a second table, and each stays within
    one stack.  The bounds follow from that design, not from a
    measurement."""

    @staticmethod
    def scenario(rng, size):
        factors, t1, n = size
        dim = int(np.prod(factors))
        sc = Scenario(name="generic", factor_dims=factors,
                      hamiltonian=random_hermitian(rng, dim), initial_state=random_ket(rng, dim),
                      time=TimeSpec(0.0, t1, 1e-3),
                      ensemble=EnsembleSpec(10, 1, ())).validate()
        assert len(sc.grid()) == n
        return sc, n * dim * dim * np.dtype(complex).itemsize

    def test_joint_family_holds_at_most_three_quarters_of_a_stack(self, rng, size):
        sc, stack = self.scenario(rng, size)
        _family, peak = traced_peak(compute_joint_family, sc)
        assert peak <= 0.75 * stack, peak / stack

    def test_paired_current_holds_at_most_one_stack(self, rng, size):
        sc, stack = self.scenario(rng, size)
        family = compute_joint_family(sc)
        _current, peak = traced_peak(compute_currents, family, "generalized_schrodinger")
        assert peak <= 1.0 * stack, peak / stack

    def test_bell_rates_hold_at_most_one_stack(self, rng, size):
        sc, stack = self.scenario(rng, size)
        family = compute_joint_family(sc)
        current = compute_currents(family, "generalized_schrodinger")
        _rates, peak = traced_peak(compute_rates, current, family.probabilities)
        assert peak <= 1.0 * stack, peak / stack


def test_single_factor_current_holds_at_most_one_stack(rng):
    # With one 64-dim factor the tracked directions and the connections are
    # (n, D, D) stacks themselves.  Their input checks run over 256 KiB
    # slices, so the current stage holds its table and no stack beside it.
    sc = Scenario(name="one-factor", factor_dims=(64,), hamiltonian=random_hermitian(rng, 64),
                  initial_state=random_ket(rng, 64), time=TimeSpec(0.0, 0.2, 1e-3),
                  ensemble=EnsembleSpec(10, 1, ())).validate()
    family = compute_joint_family(sc)
    _current, peak = traced_peak(compute_currents, family, "generalized_schrodinger")
    assert peak <= 1.0 * 201 * 64 * 64 * np.dtype(complex).itemsize


class TestComputeRatesShapes:
    """``compute_rates`` takes an (n, D, D) current and (n, D) probabilities."""

    EXPECTED = r"\(n, D, D\) current and \(n, D\) probabilities"

    def test_single_node_current_is_rejected(self):
        current = CurrentMatrix(np.triu(np.ones((3, 3)), 1) - np.tril(np.ones((3, 3)), -1))
        with pytest.raises(ValueError, match=self.EXPECTED):
            compute_rates(current, np.full(3, 1.0 / 3))

    def test_mismatched_probabilities_are_rejected(self):
        current = CurrentMatrix(np.zeros((4, 3, 3)))
        with pytest.raises(ValueError, match=self.EXPECTED):
            compute_rates(current, np.full((5, 3), 1.0 / 3))


class TestNodeBlocks:
    """The per-node stages, the public current and rate constructors among
    them, give the same bytes whatever the node blocks: one node per block
    puts a block edge between every two nodes and at both ends of the
    stencil, seven nodes per block leaves a short last block, and one block
    holding the whole grid runs through the same loop."""

    @staticmethod
    def outputs(sc):
        family = compute_joint_family(sc)
        out = [*family.connections, family.probabilities, pipeline.pdot_target(family)]
        for kind in ("minimal_flow", "static_schrodinger", "generalized_schrodinger",
                     "minimal_flow_like"):
            current = compute_currents(family, kind)
            out.append(current.matrix)
            for c in (0.0, 0.5):
                rates = compute_rates(current, family.probabilities, c)
                out += [rates.matrix, rates.pole_mask]
        return out

    @pytest.mark.parametrize("nodes_per_block", [1, 7, "whole grid"])
    @pytest.mark.parametrize("name", ["generic-2x2x2x2", "measured-possessed-property"])
    def test_block_edges_change_no_bit(self, monkeypatch, nodes_per_block, name):
        if name in BUILTINS:
            sc = BUILTINS[name]().validate()
        else:
            rng = np.random.default_rng(2222)
            sc = Scenario(name=name, factor_dims=(2, 2, 2, 2),
                          hamiltonian=random_hermitian(rng, 16),
                          initial_state=random_ket(rng, 16),
                          time=TimeSpec(0.0, 0.2, 1e-3),
                          ensemble=EnsembleSpec(10, 1, ())).validate()
        dim = sc.space.dim
        default = self.outputs(sc)
        assert len(default[0]) > 7 and currents._BLOCK_BYTES < len(default[0]) * dim * dim * 16
        if nodes_per_block == "whole grid":
            nodes_per_block = len(default[0])
        monkeypatch.setattr(currents, "_BLOCK_BYTES", nodes_per_block * dim * dim * 16)
        for got, want in zip(self.outputs(sc), default, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_non_orthogonal_direction_in_last_block_raises(self, monkeypatch):
        rng = np.random.default_rng(5)
        sc = Scenario(name="generic-2x2x2x2", factor_dims=(2, 2, 2, 2),
                      hamiltonian=random_hermitian(rng, 16), initial_state=random_ket(rng, 16),
                      time=TimeSpec(0.0, 0.2, 1e-3),
                      ensemble=EnsembleSpec(10, 1, ())).validate()
        build = pipeline.compute_joint_family

        def skewed(scenario):
            family = build(scenario)
            first, *rest = family.factor_trajectories
            vectors = first.vectors.copy()
            vectors[-1, 1] = vectors[-1, 0]           # last node, last block
            return replace(family, factor_trajectories=(replace(first, vectors=vectors), *rest))

        monkeypatch.setattr(pipeline, "compute_joint_family", skewed)
        assert len(sc.grid()) * 16 * 16 * 16 > currents._BLOCK_BYTES   # several blocks
        with pytest.raises(ValueError, match="projectors are not mutually orthogonal"):
            run(sc, report_only=True)


class TestStackShapes:
    """The constructors flatten leading node axes into node blocks and shape
    the record back: one node without a leading axis, and a stack with two
    leading axes across a block edge, give the matching slices of the
    ``(n, ...)`` record bit for bit."""

    @pytest.fixture(scope="class")
    def family(self):
        rng = np.random.default_rng(2222)
        sc = Scenario(name="generic-2x2x2x2", factor_dims=(2, 2, 2, 2),
                      hamiltonian=random_hermitian(rng, 16), initial_state=random_ket(rng, 16),
                      time=TimeSpec(0.0, 0.2, 1e-3), ensemble=EnsembleSpec(10, 1, ())).validate()
        assert len(sc.grid()) * 16 * 16 * 16 > 2 * currents._BLOCK_BYTES   # several blocks
        return compute_joint_family(sc)

    @pytest.mark.parametrize("kind", ["minimal_flow", "static_schrodinger",
                                      "generalized_schrodinger", "minimal_flow_like"])
    def test_slices_of_the_stacked_record(self, family, kind):
        vectors = [traj.vectors for traj in family.factor_trajectories]
        edge = currents._BLOCK_BYTES // (16 * 16 * 16)          # the first block edge
        shapes = {"one node": lambda x: x[5],
                  "two axes": lambda x: x[edge - 6:edge + 6].reshape((3, 4) + x.shape[1:])}
        records = {}
        for name, pick in [("whole", lambda x: x), *shapes.items()]:
            current = current_matrix(kind, pick(family.psi), family.scenario.hamiltonian,
                                     [pick(v) for v in vectors],
                                     [pick(c) for c in family.connections])
            p = pick(family.probabilities)
            rates = [rate_matrix(current, p, c) for c in (0.0, 0.5)]
            records[name] = [current.matrix] + [a for r in rates for a in (r.matrix, r.pole_mask)]
        for name, pick in shapes.items():
            for got, whole in zip(records[name], records["whole"], strict=True):
                want = pick(whole)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestInputChecksSeeEveryNode:
    """``compute_currents`` checks its inputs once, over all nodes, before
    any node block runs: a fault at the last node alone raises the error the
    public constructor raises on the same arrays."""

    @staticmethod
    def family():
        rng = np.random.default_rng(5)
        sc = Scenario(name="generic-2x2x2x2", factor_dims=(2, 2, 2, 2),
                      hamiltonian=random_hermitian(rng, 16), initial_state=random_ket(rng, 16),
                      time=TimeSpec(0.0, 0.2, 1e-3),
                      ensemble=EnsembleSpec(10, 1, ())).validate()
        assert len(sc.grid()) * 16 * 16 * 16 > currents._BLOCK_BYTES   # several blocks
        return compute_joint_family(sc)

    @staticmethod
    def assert_same_error(family, message):
        with pytest.raises(ValueError, match=message) as public:
            current_matrix(
                "generalized_schrodinger", family.psi, family.scenario.hamiltonian,
                [traj.vectors for traj in family.factor_trajectories], family.connections)
        with pytest.raises(ValueError, match=message) as blocked:
            compute_currents(family, "generalized_schrodinger")
        assert str(blocked.value) == str(public.value)

    def test_non_orthogonal_direction_at_last_node(self):
        family = self.family()
        first, *rest = family.factor_trajectories
        vectors = first.vectors.copy()
        vectors[-1, 1] = vectors[-1, 0]
        family = replace(family, factor_trajectories=(replace(first, vectors=vectors), *rest))
        self.assert_same_error(family, "projectors are not mutually orthogonal")

    def test_non_anti_hermitian_connection_at_last_node(self):
        family = self.family()
        first, *rest = family.connections
        conn = first.copy()
        conn[-1] = np.eye(2)                          # Hermitian, not anti-Hermitian
        family = replace(family, connections=(conn, *rest))
        self.assert_same_error(family, "connections are not anti-Hermitian")
