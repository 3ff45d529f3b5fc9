"""Beamformer algebra: outer products, power identities, mixing operators."""

import numpy as np
import pytest

from slnrbeam.beamformer import (
    beamformer_matrix,
    coupling_matrix,
    init_feasible,
)
from slnrbeam.channel import Scenario

from conftest import columns, free_rows, full_beamformer, psi_matrix, total_power, vec


def random_factors(rng, Q=4, M=2, L=3):
    shape = (L, M, Q)
    draw = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.stack([draw(), draw()])


def unit(n, i):
    e = np.zeros(n, dtype=complex)
    e[i] = 1.0
    return e


def factor_array(v_a, v_e):
    """One user's (2, 1, M, Q) factors from its M stacked azimuth and elevation vectors."""
    q = 3
    return np.stack([v_a.reshape(1, -1, q), v_e.reshape(1, -1, q)])


class TestFullBeamformer:
    def test_single_outer_product(self):
        factors = factor_array(unit(3, 1), unit(3, 0))
        mat = full_beamformer(factors, 0)
        want = np.zeros((3, 3))
        want[0, 1] = 1.0
        np.testing.assert_allclose(mat, want, atol=0)

    def test_rank_bound(self):
        rng = np.random.default_rng(0)
        for m_count in (1, 2, 3):
            factors = random_factors(rng, Q=5, M=m_count, L=2)
            for ell in range(2):
                assert np.linalg.matrix_rank(full_beamformer(factors, ell)) <= m_count

    def test_trace_form_matches_bilinear(self):
        rng = np.random.default_rng(1)
        factors = random_factors(rng)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for ell in range(factors.shape[1]):
            v_e = columns(factors, 1, ell)
            v_a = columns(factors, 0, ell)
            direct = sum(v_e[:, m] @ h @ v_a[:, m] for m in range(factors.shape[2]))
            via_trace = np.trace(h.T @ full_beamformer(factors, ell))
            assert direct == pytest.approx(via_trace, rel=1e-12)


class TestTotalPower:
    def test_rank_one_unit(self):
        factors = factor_array(unit(3, 0), unit(3, 1))
        assert total_power(factors) == pytest.approx(1.0)

    def test_three_way_identity(self):
        # Frobenius power equals the quadratic form through either side's
        # coupling matrix, for many random sets.
        rng = np.random.default_rng(2)
        for _ in range(200):
            q_len = int(rng.integers(2, 5))
            m_count = int(rng.integers(1, q_len + 1))
            factors = random_factors(rng, Q=q_len, M=m_count, L=int(rng.integers(1, 4)))
            direct = total_power(factors)
            via_azimuth, via_elevation = (
                sum(
                    np.real(v[ell].conj() @ (coupling_matrix(side, factors)[ell] @ v[ell]))
                    for ell in range(factors.shape[1])
                )
                for side, v in ((0, free_rows(factors, 0)), (1, free_rows(factors, 1)))
            )
            assert via_azimuth == pytest.approx(direct, rel=1e-10)
            assert via_elevation == pytest.approx(direct, rel=1e-10)


class TestCouplingMatrix:
    def test_orthonormal_fixed_side_is_identity(self):
        factors = factor_array(np.zeros(6, dtype=complex), np.concatenate([unit(3, 0), unit(3, 1)]))
        np.testing.assert_allclose(coupling_matrix(0, factors), np.eye(6)[None], atol=0)

    def test_single_product_scaling(self):
        rng = np.random.default_rng(3)
        factors = random_factors(rng, Q=4, M=1, L=1)
        (a_mat,) = coupling_matrix(0, factors)
        np.testing.assert_allclose(
            a_mat, np.linalg.norm(factors[1, 0]) ** 2 * np.eye(4), atol=1e-12
        )

    def test_psd(self):
        rng = np.random.default_rng(4)
        factors = random_factors(rng)
        for side in (0, 1):
            for a_mat in coupling_matrix(side, factors):
                lam = np.linalg.eigvalsh(a_mat)
                assert lam.min() >= -1e-12 * max(lam.max(), 1.0)

    @pytest.mark.parametrize("Q,M,L", [(3, 1, 3), (4, 2, 5), (5, 3, 2)])
    def test_stack_matches_per_user_kron_bit_for_bit(self, Q, M, L):
        # Each entry is the user's fixed-side Gram matrix kron I_Q, exactly as
        # np.kron forms it from the (Q, M) column matrix.
        rng = np.random.default_rng(Q * 10 + M)
        factors = random_factors(rng, Q=Q, M=M, L=L)
        for side in (0, 1):
            stack = coupling_matrix(side, factors)
            assert stack.shape == (L, Q * M, Q * M)
            for ell in range(L):
                cols = columns(factors, 1 - side, ell)
                np.testing.assert_array_equal(stack[ell], np.kron(cols.conj().T @ cols, np.eye(Q)))


class TestPsiMatrix:
    def test_column_selector_structure(self):
        factors = factor_array(np.zeros(3, dtype=complex), unit(3, 0))
        psi = psi_matrix(0, factors, 0)
        want = np.vstack([np.eye(3), np.zeros((6, 3))])
        np.testing.assert_allclose(psi, want, atol=0)

    def test_bilinear_identity_both_orders(self):
        # vec(H^T)^T Psi_az v_a and vec(H)^T Psi_el v_e both reproduce the
        # transmit bilinear form, for 200 random (set, channel) pairs.
        rng = np.random.default_rng(5)
        for _ in range(200):
            factors = random_factors(rng, Q=3, M=2, L=2)
            h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for ell in range(2):
                v_e = columns(factors, 1, ell)
                v_a = columns(factors, 0, ell)
                direct = sum(v_e[:, m] @ h @ v_a[:, m] for m in range(2))
                scale = max(abs(direct), 1.0)
                az = vec(h.T) @ psi_matrix(0, factors, ell) @ free_rows(factors, 0)[ell]
                el = vec(h) @ psi_matrix(1, factors, ell) @ free_rows(factors, 1)[ell]
                assert abs(az - direct) <= 1e-12 * scale
                assert abs(el - direct) <= 1e-12 * scale

    def test_mixed_vector_shortcut(self):
        # Psi_el v_e = vec(V) and Psi_az v_a = vec(V^T) for the assembled
        # transmit matrix V = sum_m v_e[m] v_a[m]^T.
        rng = np.random.default_rng(6)
        factors = random_factors(rng)
        for ell in range(factors.shape[1]):
            full = full_beamformer(factors, ell)
            np.testing.assert_allclose(
                psi_matrix(1, factors, ell) @ free_rows(factors, 1)[ell], vec(full), atol=1e-12
            )
            np.testing.assert_allclose(
                psi_matrix(0, factors, ell) @ free_rows(factors, 0)[ell], vec(full.T), atol=1e-12
            )

    def test_gram_matches_coupling(self):
        rng = np.random.default_rng(7)
        factors = random_factors(rng)
        for side in (0, 1):
            stack = coupling_matrix(side, factors)
            for ell in range(factors.shape[1]):
                psi = psi_matrix(side, factors, ell)
                np.testing.assert_allclose(psi.conj().T @ psi, stack[ell], atol=1e-12)


class TestInitFeasible:
    def test_exact_power(self):
        sc = Scenario(Q=4, L=3, M=2, seed=1)
        factors = init_feasible(sc, np.random.default_rng(1))
        assert factors.shape == (2, sc.L, sc.M, sc.Q)
        assert total_power(factors) == pytest.approx(sc.P, rel=1e-12)

    def test_reproducible(self):
        sc = Scenario(Q=4, L=3, M=2, seed=1)
        a = init_feasible(sc, np.random.default_rng(9))
        b = init_feasible(sc, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_power_scales_quadratically(self):
        sc = Scenario(Q=4, L=3, M=1, seed=2)
        factors = init_feasible(sc, np.random.default_rng(2))
        doubled = factors.copy()
        doubled[0] = 2.0 * doubled[0]
        assert total_power(doubled) == pytest.approx(4.0 * total_power(factors), rel=1e-12)


class TestBeamformerMatrix:
    def test_columns_are_vectorized(self):
        rng = np.random.default_rng(9)
        factors = random_factors(rng)
        w = beamformer_matrix(factors)
        for ell in range(factors.shape[1]):
            np.testing.assert_allclose(w[:, ell], vec(full_beamformer(factors, ell)), atol=0)

    @pytest.mark.parametrize("Q, M, L", [(3, 1, 3), (8, 2, 5), (5, 3, 2), (6, 4, 4)])
    def test_batched_product_matches_per_user_bit_for_bit(self, Q, M, L):
        rng = np.random.default_rng(Q * 10 + M)
        for _ in range(5):
            factors = random_factors(rng, Q=Q, M=M, L=L)
            w = beamformer_matrix(factors)
            want = np.stack([vec(full_beamformer(factors, ell)) for ell in range(L)], axis=1)
            assert np.array_equal(w, want)
            assert w.flags.c_contiguous
