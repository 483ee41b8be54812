import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmoheom.linalg import (
    NonHermitianError,
    PAULI,
    check_hermitian,
    hermitian_eigen,
    trace_distance,
)
from fmoheom.measures import horodecki_M, wootters_concurrence
from fmoheom.model import FMO_HAMILTONIAN_CM

from conftest import random_hermitian, random_pair_state
from heom_reference import anticommutator, commutator


def _fails_check(a):
    try:
        check_hermitian(a)
    except NonHermitianError:
        return True
    return False


class TestCheckHermitian:
    @settings(deadline=None)
    @given(dim=st.integers(1, 4),
           members=st.lists(st.tuples(st.floats(-3.0, 3.0),
                                      st.none() | st.floats(-12.0, -6.0)),
                            min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_fails_iff_a_member_fails(self, dim, members, seed):
        # Members differ in scale by up to 10^6 and carry anti-Hermitian
        # defects around the 1e-9 relative tolerance, or none at all.
        rng = np.random.default_rng(seed)
        stack = []
        for log_scale, log_defect in members:
            a = 10.0**log_scale * random_hermitian(rng, dim)
            if log_defect is not None:
                noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                a = a + 10.0**(log_scale + log_defect) * noise
            stack.append(a)
        assert _fails_check(np.array(stack)) == any(map(_fails_check, stack))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"must be square, got shape \(2, 3\)"):
            check_hermitian(np.zeros((2, 3)))

    @pytest.mark.parametrize("func", [
        lambda s: trace_distance(s, s),
        hermitian_eigen,
        horodecki_M,
        wootters_concurrence,
    ], ids=["trace_distance", "hermitian_eigen", "horodecki_M",
            "wootters_concurrence"])
    def test_single_matrix_functions_reject_stacks(self, func):
        rng = np.random.default_rng(9)
        stack = np.array([random_pair_state(rng)[0] for _ in range(3)])
        with pytest.raises(ValueError, match="one matrix"):
            func(stack)


class TestHermitianEigen:
    def test_identity(self):
        vals, _ = hermitian_eigen(np.eye(3, dtype=complex))
        np.testing.assert_allclose(vals, [1, 1, 1])

    def test_diagonal_ascending(self):
        vals, _ = hermitian_eigen(np.diag([2.0, -1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(vals, [-1, 0, 2])

    def test_fmo_exciton_coefficients(self):
        # Third-lowest exciton of the 7-site Hamiltonian, components on
        # sites 1 and 2 with the largest-component-positive phase rule.
        _, vecs = hermitian_eigen(FMO_HAMILTONIAN_CM.astype(complex))
        e3 = vecs[:, 2]
        assert abs(e3[0].real - 0.877) < 5e-4
        assert abs(e3[1].real - 0.440) < 5e-4

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for dim in (2, 4, 7, 8):
            a = random_hermitian(rng, dim)
            vals, vecs = hermitian_eigen(a)
            np.testing.assert_allclose(
                vecs @ np.diag(vals) @ vecs.conj().T, a, atol=1e-10)
            np.testing.assert_allclose(
                vecs.conj().T @ vecs, np.eye(dim), atol=1e-10)

    def test_residual_and_phase(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 6)
        vals, vecs = hermitian_eigen(a)
        for i in range(6):
            resid = np.max(np.abs(a @ vecs[:, i] - vals[i] * vecs[:, i]))
            assert resid <= 1e-10 * np.max(np.abs(a))
            j = np.argmax(np.abs(vecs[:, i]))
            assert vecs[j, i].real > 0
            assert abs(vecs[j, i].imag) < 1e-12

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NonHermitianError):
            hermitian_eigen(bad)


class TestTraceDistance:
    def test_identical(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_distance(a, b) - 1.0) < 1e-14

    def test_hand_value(self):
        # eigenvalues of the difference are +/- 0.5
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.5, 0.5]).astype(complex)
        assert abs(trace_distance(a, b) - 0.5) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(np.eye(2), np.eye(3))

    def test_metric_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = (random_hermitian(rng, 4) for _ in range(3))
            dab = trace_distance(a, b)
            assert dab >= 0
            assert abs(dab - trace_distance(b, a)) < 1e-12
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12


class TestCommutators:
    """The commutator helpers of the node-by-node reference generator."""

    def test_self_commutator_zero(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 4)
        np.testing.assert_allclose(commutator(a, a), 0, atol=1e-14)

    def test_anticommutator_identity(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 4)
        np.testing.assert_allclose(anticommutator(np.eye(4), a), 2 * a)

    def test_pauli_algebra(self):
        np.testing.assert_allclose(
            commutator(PAULI[0], PAULI[1]), 2j * PAULI[2], atol=1e-15)

    def test_i_commutator_hermitian(self):
        rng = np.random.default_rng(8)
        v, h = random_hermitian(rng, 5), random_hermitian(rng, 5)
        c = 1j * commutator(v, h)
        np.testing.assert_allclose(c, c.conj().T, atol=1e-12)
        anti = anticommutator(v, h)
        np.testing.assert_allclose(anti, anti.conj().T, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            anticommutator(np.eye(2), np.eye(3))
