import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from fmoheom.heom import HEOMPropagator
from fmoheom.linalg import PAULI
from fmoheom.measures import (
    PairMeasures,
    all_pairs,
    closed_form_measures,
    correlation_matrix,
    horodecki_M,
    nonlocality_B,
    pair_series,
    positivity_bound_check,
    reduce_pair,
    wootters_concurrence,
)
from fmoheom.model import SystemParams, exciton_basis, fret_state, localized_state

from conftest import pair_state, random_pair_state


def bell_state():
    """(|01> + |10>)/sqrt(2) in the single-excitation sector."""
    psi = np.zeros(4)
    psi[1] = psi[2] = 1 / np.sqrt(2)
    return np.outer(psi, psi).astype(complex)


class TestReducePair:
    def test_localized_on_pair_member(self):
        r = reduce_pair(localized_state(1), 1, 2)
        np.testing.assert_allclose(np.diag(r.matrix), [0, 0, 1, 0], atol=1e-15)
        assert r.coherence == 0
        assert r.source_trace == pytest.approx(1.0)

    def test_excitation_elsewhere(self):
        r = reduce_pair(localized_state(3), 1, 2)
        np.testing.assert_allclose(np.diag(r.matrix), [1, 0, 0, 0], atol=1e-15)

    def test_fret_pair_12(self, basis):
        r = reduce_pair(fret_state(1, basis), 1, 2)
        assert abs(r.pop_m - 0.635) < 5e-3
        assert abs(r.pop_n - 0.307) < 5e-3
        assert abs(abs(r.coherence) - 0.214) < 1e-3

    def test_trace_and_structure(self, basis):
        rho = fret_state(6, basis)
        r = reduce_pair(rho, 5, 6)
        assert abs(np.trace(r.matrix).real - r.source_trace) < 1e-12
        assert r.matrix[3, 3] == 0  # double excitation empty
        np.testing.assert_allclose(r.matrix[3, :], 0, atol=1e-15)
        assert np.linalg.eigvalsh(r.matrix).min() > -1e-9

    def test_same_site_rejected(self, basis):
        with pytest.raises(ValueError):
            reduce_pair(fret_state(1, basis), 2, 2)

    def test_site_outside_the_state_rejected(self):
        with pytest.raises(ValueError, match=r"pair \(1,5\) outside 1..4"):
            reduce_pair(np.diag([1.0, 0.0, 0.0, 0.0]), 1, 5)

    @pytest.mark.parametrize("m,n", [(1.5, 3), (True, 3), (2, "3")])
    def test_non_integer_site_rejected(self, m, n):
        with pytest.raises(ValueError, match="pair sites must be integers"):
            reduce_pair(localized_state(1), m, n)

    def test_order_insensitive(self, basis):
        rho = fret_state(1, basis)
        a = reduce_pair(rho, 1, 2)
        b = reduce_pair(rho, 2, 1)
        np.testing.assert_allclose(a.matrix, b.matrix)
        assert (a.m, a.n) == (b.m, b.n) == (1, 2)

    def test_one_state_gives_scalars(self, basis):
        r = reduce_pair(fret_state(1, basis), 1, 2)
        for value in (r.pop_m, r.pop_n, r.source_trace):
            assert isinstance(value, float) and np.ndim(value) == 0
        assert isinstance(r.coherence, complex) and np.ndim(r.coherence) == 0

    def test_matrix_matches_the_reference_layout(self):
        # Pair (2, 5) of a 7x7 state with the rest of its trace on site 7.
        rng = np.random.default_rng(14)
        for _ in range(200):
            _, p_m, p_n, c, tr = random_pair_state(rng)
            rho = np.zeros((7, 7), dtype=complex)
            rho[1, 1], rho[4, 4], rho[6, 6] = p_m, p_n, tr - p_m - p_n
            rho[1, 4], rho[4, 1] = c, np.conj(c)
            r = reduce_pair(rho, 2, 5)
            mat = pair_state(r.source_trace, p_m, p_n, c)
            assert r.matrix.dtype == mat.dtype
            assert r.matrix.tobytes() == mat.tobytes()


class TestHorodecki:
    def test_bell_state(self):
        assert abs(horodecki_M(bell_state()) - 2.0) < 1e-12
        assert abs(nonlocality_B(bell_state()) - 1.0) < 1e-12

    def test_product_state(self):
        rho = np.diag([0, 0, 1, 0]).astype(complex)
        assert abs(horodecki_M(rho) - 1.0) < 1e-12
        t = correlation_matrix(rho)
        np.testing.assert_allclose(t, np.diag([0, 0, -1]), atol=1e-12)
        assert nonlocality_B(rho) == 0.0

    def test_fret_value(self, basis):
        r = reduce_pair(fret_state(1, basis), 1, 2)
        assert abs(horodecki_M(r.matrix) - 0.964) < 0.01
        assert nonlocality_B(r.matrix) == 0.0

    def test_correlation_matches_kronecker_definition(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            mat, *_ = random_pair_state(rng)
            expected = np.array([[np.trace(mat @ np.kron(sa, sb)).real
                                  for sb in PAULI] for sa in PAULI])
            np.testing.assert_allclose(correlation_matrix(mat), expected,
                                       rtol=0, atol=1e-15)

    def test_correlation_entries_bounded(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            mat, *_ = random_pair_state(rng)
            t = correlation_matrix(mat)
            assert np.all(np.abs(t) <= 1 + 1e-12)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mat, *_ = random_pair_state(rng)
            u = np.kron(unitary_group.rvs(2, random_state=rng),
                        unitary_group.rvs(2, random_state=rng))
            rotated = u @ mat @ u.conj().T
            assert abs(horodecki_M(rotated) - horodecki_M(mat)) < 1e-10


class TestClosedForm:
    def test_no_coherence(self):
        from fmoheom.measures import ReducedPairState
        r = ReducedPairState(m=1, n=2, source_trace=1.0, pop_m=1.0, pop_n=0.0,
                             coherence=0j)
        meas = closed_form_measures(r)
        assert meas.B == 0.0 and meas.C == 0.0
        assert meas.mu3 == pytest.approx(1.0)

    def test_bell_closed_form(self):
        from fmoheom.measures import ReducedPairState
        r = ReducedPairState(m=1, n=2, source_trace=1.0, pop_m=0.5, pop_n=0.5,
                             coherence=0.5 + 0j)
        meas = closed_form_measures(r)
        assert meas.mu1 == pytest.approx(1.0)
        assert meas.mu3 == pytest.approx(1.0)
        assert meas.B == pytest.approx(1.0)
        assert meas.C == pytest.approx(1.0)

    def test_fret_paper_numbers(self, basis):
        r = reduce_pair(fret_state(1, basis), 1, 2)
        meas = closed_form_measures(r)
        assert abs(meas.C - 0.428) < 0.01
        assert abs(meas.mu1 - 0.183) < 0.01
        assert abs(meas.mu3 - 0.781) < 0.01
        assert meas.B == 0.0

    def test_matches_general_path_on_samples(self):
        rng = np.random.default_rng(12)
        from fmoheom.measures import ReducedPairState
        for _ in range(500):
            mat, p_m, p_n, c, tr = random_pair_state(rng)
            r = ReducedPairState(m=1, n=2, source_trace=tr, pop_m=p_m, pop_n=p_n,
                                 coherence=c)
            meas = closed_form_measures(r)
            assert abs(meas.B - nonlocality_B(mat)) < 1e-10
            assert abs(meas.C - wootters_concurrence(mat)) < 1e-10
            assert meas.M == max(2.0 * meas.mu1, meas.mu1 + meas.mu3)
            assert abs(meas.M - horodecki_M(mat)) < 1e-12
            if meas.B > 0:
                assert meas.C > 0

    @settings(deadline=None, max_examples=300)
    @given(tr=st.sampled_from([1.0]) | st.floats(1e-3, 1.0),
           excited=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           share=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           saturation=st.sampled_from([1.0]) | st.floats(0.0, 1.0),
           phase=st.floats(0.0, 2 * np.pi))
    @example(tr=1.0, excited=1.0, share=0.5, saturation=1.0, phase=0.0)
    @example(tr=1.0, excited=0.7, share=0.0, saturation=1.0, phase=1.0)
    @example(tr=0.4, excited=1.0, share=1.0, saturation=0.3, phase=2.0)
    def test_matches_general_path_on_drawn_states(self, tr, excited, share,
                                                  saturation, phase):
        # Boundaries drawn on purpose: trace 1, a zero population and
        # |rho_mn| = sqrt(rho_mm rho_nn), the edge of positivity.
        from fmoheom.measures import ReducedPairState
        p_m, p_n = tr * excited * share, tr * excited * (1.0 - share)
        c = saturation * np.sqrt(p_m * p_n) * np.exp(1j * phase)
        mat = pair_state(tr, p_m, p_n, c)
        meas = closed_form_measures(
            ReducedPairState(m=1, n=2, source_trace=tr, pop_m=p_m, pop_n=p_n,
                             coherence=c))
        assert abs(meas.B - nonlocality_B(mat)) < 1e-10
        assert abs(meas.C - wootters_concurrence(mat)) < 1e-10


class TestWootters:
    def test_product_state(self):
        assert wootters_concurrence(np.diag([0, 0, 1, 0]).astype(complex)) == 0.0

    def test_bell_state(self):
        assert abs(wootters_concurrence(bell_state()) - 1.0) < 1e-10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            wootters_concurrence(np.diag([1.0, -0.5, 0.5, 0]).astype(complex))


class TestPositivityBound:
    def test_bell_saturates(self):
        from fmoheom.measures import ReducedPairState
        r = ReducedPairState(m=1, n=2, source_trace=1.0, pop_m=0.5, pop_n=0.5,
                             coherence=0.5 + 0j)
        assert positivity_bound_check(r)
        assert abs(abs(r.coherence) - np.sqrt(r.pop_m * r.pop_n)) < 1e-12

    def test_zero_coherence(self):
        from fmoheom.measures import ReducedPairState
        r = ReducedPairState(m=1, n=2, source_trace=1.0, pop_m=0.2, pop_n=0.3,
                             coherence=0j)
        assert positivity_bound_check(r)

    def test_elementwise_over_a_trajectory(self, traj_x1_n6):
        within = positivity_bound_check(reduce_pair(traj_x1_n6.rhos, 1, 2))
        assert within.shape == traj_x1_n6.times_fs.shape
        assert within.all()

    def test_small_population_lemma(self):
        # Tr <= 1 and pop_m + pop_n <= 0.1 implies M <= 1.
        rng = np.random.default_rng(13)
        from fmoheom.measures import ReducedPairState
        found = 0
        while found < 300:
            mat, p_m, p_n, c, tr = random_pair_state(rng)
            if p_m + p_n > 0.1:
                continue
            found += 1
            assert horodecki_M(mat) <= 1.0 + 1e-12
            r = ReducedPairState(m=1, n=2, source_trace=tr, pop_m=p_m, pop_n=p_n,
                                 coherence=c)
            assert closed_form_measures(r).B == 0.0


class TestPairSeries:
    def test_along_trajectory(self, traj_x1_n6):
        s = pair_series(traj_x1_n6, 1, 2)
        assert s.times_fs.shape == s.B.shape == s.C.shape
        assert np.array_equal(s.M, np.maximum(2.0 * s.mu1, s.mu1 + s.mu3))
        assert np.all(s.B >= 0) and np.all(s.C >= 0)
        # closed form agrees with general measures on sampled states
        for i in range(0, s.times_fs.size, 50):
            r = reduce_pair(traj_x1_n6.rhos[i], 1, 2)
            assert abs(s.M[i] - horodecki_M(r.matrix)) < 1e-12
            assert abs(s.B[i] - nonlocality_B(r.matrix)) < 1e-10
            assert abs(s.C[i] - wootters_concurrence(r.matrix)) < 1e-10
            assert positivity_bound_check(r)

    @pytest.fixture(scope="class")
    def traj_fret1(self, basis):
        params = SystemParams(truncation_N=3, t_end_fs=100.0, dt_out_fs=0.5)
        return HEOMPropagator(params).run(fret_state(1, basis))

    @pytest.mark.parametrize("name", ["traj_x1_n6", "traj_fret1"])
    def test_equals_per_sample_closed_form(self, name, request):
        traj = request.getfixturevalue(name)
        for m, n in all_pairs():
            s = pair_series(traj, m, n)
            per_sample = [closed_form_measures(reduce_pair(rho, m, n))
                          for rho in traj.rhos]
            for field in ("B", "C", "M", "mu1", "mu3"):
                expected = [getattr(p, field) for p in per_sample]
                assert np.array_equal(getattr(s, field), expected), (m, n, field)

    def test_is_the_closed_form_of_the_reduced_stack(self, traj_x1_n6):
        s = pair_series(traj_x1_n6, 2, 5)
        assert isinstance(s, PairMeasures)
        assert (s.m, s.n) == (2, 5) and s.times_fs is traj_x1_n6.times_fs
        expected = closed_form_measures(reduce_pair(traj_x1_n6.rhos, 2, 5))
        for field in dataclasses.fields(PairMeasures):
            got, want = getattr(s, field.name), getattr(expected, field.name)
            assert got.tobytes() == want.tobytes(), field.name

    def test_rounds_like_python_scalars(self, traj_x1_n6):
        # The CLI's CSV bytes rest on the rounding of abs(complex) and x ** 2
        # on Python floats; array abs and ** 2 differ in the last bit.
        for m, n in all_pairs():
            s = pair_series(traj_x1_n6, m, n)
            for i, rho in enumerate(traj_x1_n6.rhos):
                c_abs = abs(complex(rho[m - 1, n - 1]))
                pops = float(rho[m - 1, m - 1].real) + float(rho[n - 1, n - 1].real)
                assert s.C[i] == 2.0 * c_abs
                assert s.mu1[i] == 4.0 * c_abs ** 2
                assert s.mu3[i] == (float(np.trace(rho).real) - 2.0 * pops) ** 2

    @pytest.mark.parametrize("corruption", ["non_hermitian", "trace_above_1",
                                            "negative_ground_ground"])
    def test_raises_reduce_pair_error_for_one_bad_sample(self, traj_x1_n6,
                                                         corruption):
        rhos = traj_x1_n6.rhos.copy()
        k = rhos.shape[0] // 2
        if corruption == "non_hermitian":
            rhos[k, 0, 1] += 1e-3
        elif corruption == "trace_above_1":
            rhos[k, 6, 6] += 1.0 - np.trace(rhos[k]).real + 1e-6
        else:
            shift = reduce_pair(rhos[k], 1, 2).matrix[0, 0].real + 0.01
            rhos[k, 0, 0] += shift
            rhos[k, 6, 6] -= shift
        with pytest.raises(ValueError) as single:
            reduce_pair(rhos[k], 1, 2)
        bad = dataclasses.replace(traj_x1_n6, rhos=rhos)
        with pytest.raises(type(single.value)) as series:
            pair_series(bad, 1, 2)
        assert str(series.value) == str(single.value)
