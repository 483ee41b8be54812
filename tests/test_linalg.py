import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmoheom.linalg import (
    HERMITIAN_RTOL,
    NonHermitianError,
    PAULI,
    check_hermitian,
    trace_distance,
)
from fmoheom.measures import (
    correlation_matrix,
    horodecki_M,
    nonlocality_B,
    reduce_pair,
    wootters_concurrence,
)
from fmoheom.model import SystemParams, exciton_basis, localized_state

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
        horodecki_M,
        wootters_concurrence,
    ], ids=["horodecki_M", "wootters_concurrence"])
    def test_single_matrix_functions_reject_stacks(self, func):
        rng = np.random.default_rng(9)
        stack = np.array([random_pair_state(rng)[0] for _ in range(3)])
        with pytest.raises(ValueError, match="one matrix"):
            func(stack)

    @pytest.mark.parametrize("func", [
        correlation_matrix,
        horodecki_M,
        nonlocality_B,
        wootters_concurrence,
    ], ids=["correlation_matrix", "horodecki_M", "nonlocality_B",
            "wootters_concurrence"])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_single_matrix_functions_reject_other_sizes(self, func, dim):
        # A Hermitian state that is not 4x4 is refused by the gate, not by numpy.
        with pytest.raises(ValueError, match=rf"^pair state must be 4x4, "
                                             rf"got shape \({dim}, {dim}\)$"):
            func(np.eye(dim) / dim)

    @pytest.mark.parametrize("func,rho", [
        (lambda a: trace_distance(a, a), localized_state(1)),
        (lambda a: reduce_pair(a, 1, 2), np.stack([localized_state(1)] * 2)),
        (correlation_matrix, np.diag([0.5, 0.25, 0.25, 0.0])),
        (wootters_concurrence, np.diag([0.5, 0.25, 0.25, 0.0])),
        (horodecki_M, np.diag([0.5, 0.25, 0.25, 0.0])),
        (nonlocality_B, np.diag([0.5, 0.25, 0.25, 0.0])),
        (lambda a: reduce_pair(a, 1, 2), localized_state(1)),
    ], ids=["trace_distance", "reduce_pair",
            "correlation_matrix", "wootters_concurrence",
            "horodecki_M", "nonlocality_B", "reduce_pair_one_state"])
    def test_every_input_meets_one_tolerance(self, func, rho):
        # A defect just inside HERMITIAN_RTOL passes, ten times more fails.
        def with_defect(factor):
            a = np.array(rho, dtype=complex)
            a[..., 0, 1] += 1j * factor * HERMITIAN_RTOL
            return a

        func(with_defect(0.9))
        with pytest.raises(NonHermitianError):
            func(with_defect(10.0))

    @pytest.mark.parametrize("func,rho", [
        (lambda a: trace_distance(a, np.eye(7)), np.eye(7)),
        (lambda a: trace_distance(np.eye(7), a), np.eye(7)),
        (lambda a: reduce_pair(a, 1, 2), np.stack([localized_state(1)] * 3)),
        (correlation_matrix, np.diag([0.5, 0.25, 0.25, 0.0])),
        (wootters_concurrence, np.diag([0.5, 0.25, 0.25, 0.0])),
        (horodecki_M, np.diag([0.5, 0.25, 0.25, 0.0])),
        (nonlocality_B, np.diag([0.5, 0.25, 0.25, 0.0])),
        (lambda a: reduce_pair(a, 1, 2), localized_state(1)),
    ], ids=["trace_distance_A", "trace_distance_B", "reduce_pair",
            "correlation_matrix", "wootters_concurrence",
            "horodecki_M", "nonlocality_B", "reduce_pair_one_state"])
    @pytest.mark.parametrize("entry", [(0, 1), (2, 2)], ids=["off_diag", "diag"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entries_rejected(self, func, rho, entry, value):
        # NaN compares False with every bound and an inf entry makes the
        # tolerance infinite: both must fail the check, which names them.
        a = np.array(rho, dtype=complex)
        a[(..., *entry)] = value
        with pytest.raises(NonHermitianError, match=r"non-finite entries at \[\("):
            func(a)

    def test_non_finite_message_names_every_entry(self):
        a = np.stack([np.eye(3, dtype=complex)] * 4)
        a[2, 0, 1] = a[2, 1, 0] = np.inf
        a[3, 2, 2] = np.nan
        with pytest.raises(NonHermitianError,
                           match=r"^rho has non-finite entries at \[\(2, 0, 1\), \(2, 1, 0\)\]$"):
            check_hermitian(a, name="rho")
        with pytest.raises(NonHermitianError,
                           match=r"^rho has non-finite entries at \[\(1, 1\)\]$"):
            check_hermitian(np.diag([1.0, np.nan]), name="rho")


def _random_symmetric_params(rng):
    """SystemParams with a random symmetric 7x7 H whose gaps are >= 1 cm^-1."""
    while True:
        a = rng.normal(scale=100.0, size=(7, 7))
        h = 0.5 * (a + a.T)
        if np.diff(np.linalg.eigvalsh(h)).min() >= 1.0:
            return SystemParams(truncation_N=0, hamiltonian_cm=h)


class TestHermitianEigen:
    # The Hermitian eigendecomposition with its phase rule is model.exciton_basis.
    def test_diagonal_ascending(self):
        h = np.diag([2.0, -1.0, 0.0, 5.0, 4.0, 3.0, 6.0])
        b = exciton_basis(SystemParams(truncation_N=0, hamiltonian_cm=h))
        np.testing.assert_allclose(b.energies_cm, [-1, 0, 2, 3, 4, 5, 6])
        np.testing.assert_array_equal(b.coeffs, np.eye(7)[[1, 2, 0, 5, 4, 3, 6]])

    def test_fmo_exciton_coefficients(self):
        # Third-lowest exciton of the 7-site Hamiltonian, components on
        # sites 1 and 2 with the largest-component-positive phase rule.
        e3 = exciton_basis(SystemParams(truncation_N=0)).coeffs[2]
        assert abs(e3[0] - 0.877) < 5e-4
        assert abs(e3[1] - 0.440) < 5e-4

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            p = _random_symmetric_params(rng)
            b = exciton_basis(p)
            np.testing.assert_allclose(
                b.coeffs.T @ np.diag(b.energies_cm) @ b.coeffs, p.hamiltonian_cm,
                atol=1e-10 * np.max(np.abs(p.hamiltonian_cm)))
            np.testing.assert_allclose(b.coeffs @ b.coeffs.T, np.eye(7), atol=1e-10)

    def test_residual_and_phase(self):
        p = _random_symmetric_params(np.random.default_rng(11))
        h = p.hamiltonian_cm
        b = exciton_basis(p)
        for energy, c in zip(b.energies_cm, b.coeffs):
            assert np.max(np.abs(h @ c - energy * c)) <= 1e-10 * np.max(np.abs(h))
            assert c[np.argmax(np.abs(c))] > 0


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
        for a, b in [(np.eye(2), np.eye(3)),
                     (np.zeros((3, 4, 4)), np.zeros((2, 4, 4))),
                     (np.zeros((3, 4, 4)), np.eye(4))]:
            with pytest.raises(ValueError, match="shape mismatch"):
                trace_distance(a, b)

    def test_stacks_match_pairwise_calls_bit_for_bit(self):
        rng = np.random.default_rng(4)
        a = np.array([random_hermitian(rng, 7) for _ in range(6)])
        b = np.array([random_hermitian(rng, 7) for _ in range(6)])
        stacked = trace_distance(a, b)
        assert stacked.shape == (6,)
        pairwise = [trace_distance(x, y) for x, y in zip(a, b)]
        assert all(type(d) is float for d in pairwise)
        assert stacked.tolist() == pairwise
        assert trace_distance(a.reshape(2, 3, 7, 7),
                              b.reshape(2, 3, 7, 7)).ravel().tolist() == pairwise

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
