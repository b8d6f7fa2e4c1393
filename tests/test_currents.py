import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from modaldyn import pipeline
from modaldyn.currents import (CurrentMatrix, continuity_residual,
                               generalized_schrodinger_current,
                               minimal_flow_current, static_schrodinger_current)
from modaldyn.hilbert import projector_from_vector
from modaldyn.pipeline import compute_currents, compute_joint_family, compute_rates, run
from modaldyn.scenario import BUILTINS, EnsembleSpec, Scenario, TimeSpec
from modaldyn.spectral import derivative_family
from scipy.integrate import trapezoid

from conftest import least_norm_current_oracle, random_hermitian, random_ket


def balanced_pdot(rng, d):
    v = rng.normal(size=d)
    return v - v.mean()


def orthonormal_vectors(rng, dim):
    """Rows: an orthonormal basis, the directions of a rank-1 projector family."""
    q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    return q.T.copy()


def dense(vectors):
    return np.stack([projector_from_vector(v) for v in vectors])


class TestCurrentMatrix:
    def test_structural_antisymmetry(self, rng):
        u = np.triu(rng.normal(size=(4, 4)), 1)
        full = CurrentMatrix(upper=u).full()
        assert np.array_equal(full, -full.T)
        assert np.all(np.diag(full) == 0)

    def test_flow_accessor(self):
        # Entry [..., j, i] of full() is the flow i -> j, per node of a stack.
        up = np.triu(np.arange(9.0).reshape(3, 3), 1)
        stack = CurrentMatrix(upper=np.stack([up, 2 * up]))
        assert len(stack) == 2
        cm = stack[0]
        assert cm.full()[0, 1] == 1.0
        assert cm.full()[1, 0] == -1.0
        assert cm.full()[2, 2] == 0.0
        assert np.array_equal(stack.full()[..., 1, 0], [-1.0, -2.0])
        assert np.array_equal(stack[1].upper, 2 * up)

    def test_rejects_lower_triangle(self):
        with pytest.raises(ValueError, match="upper"):
            CurrentMatrix(upper=np.ones((2, 2)))


class TestMinimalFlow:
    def test_zero_pdot(self):
        cm = minimal_flow_current(np.zeros(3))
        assert np.all(cm.full() == 0)

    def test_two_state_crossing_family(self):
        # pdot = (-x, x) with x = theta sin(2 theta t) gives j_21 = x.
        theta, t = 1.3, 0.4
        x = theta * np.sin(2 * theta * t)
        cm = minimal_flow_current(np.array([-x, x]))
        assert abs(cm.full()[1, 0] - x) < 1e-14

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            minimal_flow_current(np.array([0.5, 0.0]))

    def test_matches_least_norm_oracle(self, rng):
        for d in (2, 3, 4):
            pdot = balanced_pdot(rng, d)
            cm = minimal_flow_current(pdot)
            assert np.abs(cm.full() - least_norm_current_oracle(pdot)).max() <= 1e-8

    def test_continuity_exact(self, rng):
        pdot = balanced_pdot(rng, 5)
        assert continuity_residual(minimal_flow_current(pdot), pdot) <= 1e-12


class TestStaticSchrodinger:
    def test_diagonal_hamiltonian_gives_zero(self, rng):
        psi = random_ket(rng, 3)
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        cm = static_schrodinger_current(psi, h, np.eye(3))
        assert np.abs(cm.full()).max() <= 1e-14

    def test_matches_elementwise_summation_oracle(self, rng):
        dim = 4
        psi = random_ket(rng, dim)
        h = random_hermitian(rng, dim)
        vecs = orthonormal_vectors(rng, dim)
        cm = static_schrodinger_current(psi, h, vecs)
        for a in range(dim):
            for b in range(dim):
                if a == b:
                    continue
                braket = np.vdot(psi, vecs[a]) * np.vdot(vecs[a], h @ vecs[b]) \
                    * np.vdot(vecs[b], psi)
                assert abs(cm.full()[a, b] - 2 * braket.imag) <= 1e-10

    def test_continuity_against_commutator_pdot(self, rng):
        dim = 4
        psi = random_ket(rng, dim)
        h = random_hermitian(rng, dim)
        vecs = orthonormal_vectors(rng, dim)
        cm = static_schrodinger_current(psi, h, vecs)
        pdot = np.array([2 * np.vdot(psi, p @ h @ psi).imag for p in dense(vecs)])
        assert continuity_residual(cm, pdot) <= 1e-10

    def test_non_orthogonal_rejected(self, rng):
        psi = random_ket(rng, 2)
        tilted = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([[1.0], [np.sqrt(2)]])
        with pytest.raises(ValueError, match="orthogonal"):
            static_schrodinger_current(psi, random_hermitian(rng, 2), tilted)


def analytic_rotation_setup(rng, dim):
    """Projector family P_i(t) = U P_i U^dag with exact derivative -i[G, P].

    Returns H, the rotated directions (rows) and the dense projectors and
    their derivatives; the constructors take ``derivs @ psi`` as rotation.
    """
    h = random_hermitian(rng, dim)
    g = random_hermitian(rng, dim)      # rotation generator, independent of h
    t = 0.3
    import scipy.linalg
    u = scipy.linalg.expm(-1j * g * t)
    vecs = orthonormal_vectors(rng, dim) @ u.T
    projs = dense(vecs)
    derivs = np.stack([-1j * (g @ p - p @ g) for p in projs])
    return h, vecs, projs, derivs


class TestGeneralizedSchrodinger:
    def test_reduces_to_static_when_frozen(self, rng):
        dim = 3
        psi = random_ket(rng, dim)
        h = random_hermitian(rng, dim)
        vecs = orthonormal_vectors(rng, dim)
        zero = np.zeros_like(vecs)
        gen = generalized_schrodinger_current(psi, h, vecs, zero)
        stat = static_schrodinger_current(psi, h, vecs)
        assert np.abs(gen.full() - stat.full()).max() <= 1e-12

    def test_paired_term_matches_conjugate_sum(self, rng):
        dim = 4
        psi = random_ket(rng, dim)
        h, vecs, projs, derivs = analytic_rotation_setup(rng, dim)
        gen = generalized_schrodinger_current(psi, h, vecs, derivs @ psi)
        stat = static_schrodinger_current(psi, h, vecs)
        extra = gen.full() - stat.full()
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
        h, vecs, projs, derivs = analytic_rotation_setup(rng, dim)
        gen = generalized_schrodinger_current(psi, h, vecs, derivs @ psi)
        pdot = np.array([
            2 * np.vdot(psi, projs[i] @ h @ psi).imag
            + np.vdot(psi, derivs[i] @ psi).real
            for i in range(dim)
        ])
        assert continuity_residual(gen, pdot) <= 1e-10

    def test_minimal_flow_like_continuity(self, rng):
        dim = 4
        psi = random_ket(rng, dim)
        h, vecs, projs, derivs = analytic_rotation_setup(rng, dim)
        gen = generalized_schrodinger_current(psi, h, vecs, derivs @ psi,
                                              extra_term="minimal_flow_like")
        pdot = np.array([
            2 * np.vdot(psi, projs[i] @ h @ psi).imag
            + np.vdot(psi, derivs[i] @ psi).real
            for i in range(dim)
        ])
        assert continuity_residual(gen, pdot) <= 1e-10

    def test_zero_probability_rows_vanish(self, rng):
        # State support on two of four projectors: the other rows must vanish.
        dim = 4
        h, vecs, projs, derivs = analytic_rotation_setup(rng, dim)
        psi = 0.6 * vecs[0] + 0.8j * vecs[1]
        gen = generalized_schrodinger_current(psi, h, vecs, derivs @ psi).full()
        assert np.abs(gen[2, :]).max() <= 1e-9
        assert np.abs(gen[:, 2]).max() <= 1e-9
        assert np.abs(gen[3, :]).max() <= 1e-9

    def test_unbalanced_derivatives_rejected(self, rng):
        dim = 3
        psi = random_ket(rng, dim)
        h = random_hermitian(rng, dim)
        vecs = orthonormal_vectors(rng, dim)
        bad = np.stack([random_hermitian(rng, dim) for _ in range(dim)]) @ psi
        with pytest.raises(ValueError, match="sum to zero"):
            generalized_schrodinger_current(psi, h, vecs, bad)

    def test_unknown_extra_term(self, rng):
        dim = 2
        psi = random_ket(rng, dim)
        vecs = orthonormal_vectors(rng, dim)
        with pytest.raises(ValueError, match="extra_term"):
            generalized_schrodinger_current(psi, np.zeros((2, 2)), vecs,
                                            np.zeros_like(vecs), extra_term="bogus")


class TestContinuityResidual:
    def test_zero_current(self):
        cm = CurrentMatrix(upper=np.zeros((3, 3)))
        pdot = np.array([0.2, -0.5, 0.3])
        assert continuity_residual(cm, pdot) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            continuity_residual(CurrentMatrix(upper=np.zeros((2, 2))), np.zeros(3))


def generic_two_by_three(rng):
    """A random (2, 3) system, H and psi drawn from ``rng``, over t in [0, 0.5]."""
    h = random_hermitian(rng, 6)
    psi = random_ket(rng, 6)
    return Scenario(name="generic-2x3", factor_dims=(2, 3), hamiltonian=h,
                    initial_state=psi, time=TimeSpec(0.0, 0.5, 1e-3),
                    ensemble=EnsembleSpec(2000, 11, (0.25, 0.5))).validate()


class TestDenseOracle:
    """Pipeline currents of a generic (2, 3) system against dense projectors."""

    NODES = [0, 1, 250, 499, 500]

    def test_currents_match_dense_projectors(self, rng):
        sc = generic_two_by_three(rng)
        fam = compute_joint_family(sc)
        h = sc.hamiltonian
        d = len(fam.states)
        projs = np.einsum("nax,nay->naxy", fam.vectors, fam.vectors.conj())
        derivs = derivative_family(projs, fam.grid)
        born = np.einsum("nx,naxy,ny->na", fam.psi.conj(), projs, fam.psi).real
        pdot = derivative_family(born, fam.grid)
        pdot = pdot - pdot.mean(axis=1, keepdims=True)
        # psi has Schmidt rank 2, so four of the six joint states carry
        # probability zero and the paired term takes its zero-state form.
        assert (fam.probabilities[self.NODES] <= 1e-12).sum(axis=1).tolist() == [4] * 5

        def antisymmetric(f):
            up = np.triu(f, 1)
            return up - up.T

        cases = [("minimal_flow", "paired"), ("static_schrodinger", "paired")] + \
            [("generalized_schrodinger", e) for e in ("paired", "minimal_flow_like")]
        for kind, extra_term in cases:
            got = compute_currents(fam, kind=kind, extra_term=extra_term).full()
            for k in self.NODES:
                psi, p, pd = fam.psi[k], projs[k], derivs[k]
                if kind == "minimal_flow":
                    expect = antisymmetric((pdot[k][:, None] - pdot[k][None, :]) / d)
                    assert np.abs(got[k] - expect).max() <= 1e-12
                    continue
                g = np.einsum("x,axy,yz,bzw,w->ab", psi.conj(), p, h, p, psi)
                f = 2.0 * g.imag
                if kind == "generalized_schrodinger" and extra_term == "paired":
                    m = 2.0 * np.einsum("x,axy,byz,z->ab", psi.conj(), pd, p, psi).real
                    extra = 0.5 * (m - m.T)
                    occ = np.einsum("x,axy,y->a", psi.conj(), p, psi).real
                    for c in np.nonzero(occ <= 1e-12)[0]:
                        extra[:, c] = m[:, c]
                        extra[c, :] = -m[:, c]
                    f = f + extra
                elif kind == "generalized_schrodinger":
                    dexp = np.einsum("x,axy,y->a", psi.conj(), pd, psi).real
                    f = f + (dexp[:, None] - dexp[None, :]) / d
                assert np.abs(got[k] - antisymmetric(f)).max() <= 1e-12, (kind, extra_term, k)

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


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMemory:
    """Peak allocations of the per-node stages on a (2, 2, 2, 2) system over
    1001 nodes, in units of one (n, D, dim) complex stack.  Each stage runs
    over node blocks of at most 256 KiB (a sixteenth of a stack here) and
    fills outputs allocated once for the grid.  The joint family returns two
    stacks (directions and rotation) and holds little else: the tracked
    per-factor trajectories and a few blocks.  The currents and the rates
    return (n, D, D) float tables, half a stack each (the rates add a
    boolean pole mask), and check them once more as a whole, which takes
    one more such table.  The bounds follow from that design, not from a
    measurement."""

    @staticmethod
    def scenario(rng):
        sc = Scenario(name="generic-2x2x2x2", factor_dims=(2, 2, 2, 2),
                      hamiltonian=random_hermitian(rng, 16), initial_state=random_ket(rng, 16),
                      time=TimeSpec(0.0, 1.0, 1e-3),
                      ensemble=EnsembleSpec(10, 1, ())).validate()
        assert len(sc.grid()) == 1001
        return sc, 1001 * 16 * 16 * np.dtype(complex).itemsize

    def test_joint_family_holds_at_most_two_and_three_quarter_stacks(self, rng):
        sc, stack = self.scenario(rng)
        _family, peak = traced_peak(compute_joint_family, sc)
        assert peak <= 2.75 * stack, peak / stack

    def test_paired_current_holds_at_most_one_and_a_quarter_stacks(self, rng):
        sc, stack = self.scenario(rng)
        family = compute_joint_family(sc)
        _current, peak = traced_peak(compute_currents, family,
                                     "generalized_schrodinger", "paired")
        assert peak <= 1.25 * stack, peak / stack

    def test_bell_rates_hold_at_most_one_and_a_quarter_stacks(self, rng):
        sc, stack = self.scenario(rng)
        family = compute_joint_family(sc)
        current = compute_currents(family, "generalized_schrodinger", "paired")
        _rates, peak = traced_peak(compute_rates, current, family.probabilities, "bell")
        assert peak <= 1.25 * stack, peak / stack


class TestComputeRatesShapes:
    """``compute_rates`` takes an (n, D, D) current and (n, D) probabilities."""

    EXPECTED = r"\(n, D, D\) current and \(n, D\) probabilities"

    def test_single_node_current_is_rejected(self):
        current = CurrentMatrix(upper=np.triu(np.ones((3, 3)), 1))
        with pytest.raises(ValueError, match=self.EXPECTED):
            compute_rates(current, np.full(3, 1.0 / 3), "bell")

    def test_mismatched_probabilities_are_rejected(self):
        current = CurrentMatrix(upper=np.triu(np.ones((4, 3, 3)), 1))
        with pytest.raises(ValueError, match=self.EXPECTED):
            compute_rates(current, np.full((5, 3), 1.0 / 3), "bell")


class TestNodeBlocks:
    """The per-node stages give the same bytes whatever the node blocks: one
    node per block puts a block edge between every two nodes and at both
    ends of the stencil, seven nodes per block leaves a short last block,
    and one block holding the whole grid runs through the same loop."""

    @staticmethod
    def outputs(sc):
        family = compute_joint_family(sc)
        out = [family.vectors, family.rotation, family.probabilities,
               pipeline.pdot_target(family)]
        for kind, extra_term in (("minimal_flow", None), ("static_schrodinger", None),
                                 ("generalized_schrodinger", "paired"),
                                 ("generalized_schrodinger", "minimal_flow_like")):
            current = compute_currents(family, kind, extra_term)
            out.append(current.upper)
            for choice in ("bell", "general"):
                try:
                    rates = compute_rates(current, family.probabilities, choice, 0.5)
                    out += [rates.matrix, rates.pole_mask]
                except ValueError as exc:             # general rates at p = 0
                    out.append(str(exc))
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
        assert len(default[0]) > 7 and pipeline._BLOCK_BYTES < len(default[0]) * dim * dim * 16
        if nodes_per_block == "whole grid":
            nodes_per_block = len(default[0])
        monkeypatch.setattr(pipeline, "_BLOCK_BYTES", nodes_per_block * dim * dim * 16)
        for got, want in zip(self.outputs(sc), default, strict=True):
            if isinstance(want, str):
                assert got == want
            else:
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
            vectors = family.vectors.copy()
            vectors[-1, 1] = vectors[-1, 0]           # last node, last block
            return replace(family, vectors=vectors)

        monkeypatch.setattr(pipeline, "compute_joint_family", skewed)
        assert len(sc.grid()) * 16 * 16 * 16 > pipeline._BLOCK_BYTES   # several blocks
        with pytest.raises(ValueError, match="projectors are not mutually orthogonal"):
            run(sc, report_only=True)
