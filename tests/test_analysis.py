import numpy as np
import pytest

from fmoheom.analysis import (
    detect_sudden_death,
    dominant_pair,
    fret_interference_report,
    short_time_oracle,
    short_time_validation,
)
from fmoheom.heom import HEOMPropagator
from fmoheom.measures import CorrelationTimeSeries, pair_series
from fmoheom.model import CM_TO_RADFS, SystemParams, fret_state, localized_state


@pytest.fixture(scope="module")
def params():
    return SystemParams(truncation_N=0)


def _series(t, b, c=None):
    z = np.zeros_like(t)
    c = z if c is None else c
    return CorrelationTimeSeries(m=1, n=2, times_fs=t, B=b, C=c, l1=c,
                                 mu1=z, mu3=z)


@pytest.mark.parametrize("x", [0, 8])
@pytest.mark.parametrize("call", [
    lambda x, params, basis: localized_state(x),
    lambda x, params, basis: fret_state(x, basis),
    lambda x, params, basis: short_time_oracle(x, params),
    lambda x, params, basis: dominant_pair(x, params),
    lambda x, params, basis: fret_interference_report(x, basis),
], ids=["localized_state", "fret_state", "short_time_oracle", "dominant_pair",
        "fret_interference_report"])
def test_site_outside_named(call, x, params, basis):
    with pytest.raises(ValueError, match=rf"site {x} outside 1\.\.7"):
        call(x, params, basis)


class TestShortTimeOracle:
    def test_slope_C_pair_12(self, params):
        preds = short_time_oracle(1, params)
        assert preds[(1, 2)].slope_C == pytest.approx(2 * 87.7 * CM_TO_RADFS)

    def test_slope_B_pair_12(self, params):
        # 2*sqrt(87.7^2 - (5.5^2 + 5.9^2 + 6.7^2 + 13.7^2 + 9.9^2)) by hand
        rest = 5.5**2 + 5.9**2 + 6.7**2 + 13.7**2 + 9.9**2
        expected = 2 * np.sqrt(87.7**2 - rest) * CM_TO_RADFS
        preds = short_time_oracle(1, params)
        assert preds[(1, 2)].slope_B == pytest.approx(expected)
        assert abs(preds[(1, 2)].slope_B / CM_TO_RADFS - 2 * 85.41) < 0.02

    def test_non_x_pairs_flat(self, params):
        preds = short_time_oracle(1, params)
        assert preds[(3, 4)].slope_B == 0.0
        assert preds[(3, 4)].slope_C == 0.0
        expected = 2 * abs(5.5 * (-5.9)) * CM_TO_RADFS**2  # |J_31 J_14|
        assert preds[(3, 4)].quadratic_C_coeff == pytest.approx(expected)


class TestDominantPair:
    def test_paper_pairs(self, params):
        assert dominant_pair(1, params) == (1, 2)
        assert dominant_pair(6, params) == (5, 6)

    def test_x3_by_arithmetic(self, params):
        # J_34 = -53.5 against the rest of row 3: direct comparison.
        h = params.hamiltonian_cm
        row = np.delete(h[2], 2) ** 2
        j34 = 53.5**2
        expected = (3, 4) if j34 > row.sum() - j34 else None
        assert dominant_pair(3, params) == expected

    @pytest.mark.parametrize("x", [0, 8])
    def test_site_outside_rejected(self, params, x):
        with pytest.raises(ValueError, match=f"site {x} outside"):
            dominant_pair(x, params)

    def test_at_most_one_pair(self, params):
        for x in range(1, 8):
            h = params.hamiltonian_cm
            row = np.delete(h[x - 1], x - 1) ** 2
            winners = [j for j in row if j > row.sum() - j]
            assert len(winners) <= 1
            if dominant_pair(x, params) is None:
                assert not winners


class TestFretReport:
    def test_x1_paper_numbers(self, basis, params):
        rep = fret_interference_report(1, basis)
        assert (rep.m, rep.n) == (1, 2)
        assert rep.dominant_excitons == (3, 6)
        assert abs(rep.weights[2] - 0.769) < 5e-3
        assert abs(rep.weights[5] - 0.208) < 5e-3
        assert rep.weights[2] + rep.weights[5] > 0.97
        assert abs(rep.pure_BC[2] - 0.801) < 5e-3
        assert abs(rep.pure_BC[5] - 0.822) < 5e-3
        assert abs(rep.coherence_two_state - 0.214) < 1e-3
        assert not rep.non_paper_site

    def test_x6_concentrates_on_56(self, basis):
        rep = fret_interference_report(6, basis)
        assert (rep.m, rep.n) == (5, 6)
        assert not rep.non_paper_site

    def test_non_paper_site_flagged(self, basis):
        rep = fret_interference_report(3, basis)
        assert rep.non_paper_site

    def test_destructive_interference(self, basis):
        rep = fret_interference_report(1, basis)
        c3, c6 = rep.contributions[2], rep.contributions[5]
        assert c3 * c6 < 0  # relative minus sign
        assert abs(rep.coherence_full - rep.contributions.sum()) < 1e-12


class TestSuddenDeathDetection:
    def test_all_zero(self):
        t = np.arange(200.0)
        rep = detect_sudden_death(_series(t, np.zeros_like(t)))
        assert rep.death_time_fs is None
        assert rep.peak_B == 0.0

    def test_synthetic_ramp(self):
        t = np.arange(0.0, 200.0, 1.0)
        b = np.maximum(0.0, 1.0 - t / 100.0)
        rep = detect_sudden_death(_series(t, b))
        assert rep.death_time_fs == pytest.approx(100.0, abs=0.1)
        assert rep.peak_B == 1.0
        assert rep.peak_time_fs == 0.0

    def test_alive_at_end(self):
        t = np.arange(0.0, 50.0, 1.0)
        rep = detect_sudden_death(_series(t, np.full_like(t, 0.5)))
        assert rep.death_time_fs is None
        assert rep.peak_B == 0.5

    def test_last_crossing_wins(self):
        t = np.arange(0.0, 10.0, 1.0)
        b = np.array([1, 0, 0, 1, 1, 0, 0, 0, 0, 0], dtype=float)
        rep = detect_sudden_death(_series(t, b), threshold=0.5)
        assert 4.0 <= rep.death_time_fs <= 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            detect_sudden_death(_series(np.array([]), np.array([])))

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
    def test_bad_threshold_rejected(self, threshold):
        t = np.arange(0.0, 10.0, 1.0)
        with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
            detect_sudden_death(_series(t, np.zeros_like(t)), threshold=threshold)


class TestShortTimeValidation:
    @pytest.fixture(scope="class")
    @staticmethod
    def unitary_traj():
        p = SystemParams(truncation_N=0, trap_rate_inv_ps=0,
                         t_end_fs=10.0, dt_out_fs=0.1)
        return HEOMPropagator(p).run(localized_state(1))

    def test_linear_slopes(self, unitary_traj):
        p = SystemParams(truncation_N=0)
        preds = short_time_oracle(1, p)
        fit = short_time_validation(pair_series(unitary_traj, 1, 2),
                                    preds[(1, 2)], window_fs=5.0)
        assert fit.rel_dev_slope_C < 0.01
        assert fit.rel_dev_slope_B < 0.02

    def test_quadratic_pair(self, unitary_traj):
        p = SystemParams(truncation_N=0)
        preds = short_time_oracle(1, p)
        fit = short_time_validation(pair_series(unitary_traj, 2, 3),
                                    preds[(2, 3)], window_fs=5.0)
        assert fit.rel_dev_quadratic_C < 0.05

    def test_non_dominant_pair_B_flat(self, unitary_traj):
        p = SystemParams(truncation_N=0)
        preds = short_time_oracle(1, p)
        fit = short_time_validation(pair_series(unitary_traj, 3, 4),
                                    preds[(3, 4)], window_fs=5.0)
        assert abs(fit.fitted_slope_B) < 1e-8

    def test_window_too_long(self, unitary_traj):
        p = SystemParams(truncation_N=0)
        preds = short_time_oracle(1, p)
        with pytest.raises(ValueError):
            short_time_validation(pair_series(unitary_traj, 1, 2),
                                  preds[(1, 2)], window_fs=100.0)

    @pytest.mark.parametrize("window_fs,samples", [(5.0, 2), (0.0, 1)])
    def test_window_with_too_few_samples(self, params, window_fs, samples):
        # Three terms cannot be fitted to one or two samples: the fit is
        # refused instead of returning an underdetermined or all-zero answer.
        t = np.arange(0.0, 25.0, 5.0)
        series = _series(t, np.zeros_like(t), c=0.1 * t)
        pred = short_time_oracle(1, params)[(1, 2)]
        with pytest.raises(ValueError, match=f"window_fs = {window_fs} fs holds "
                                             f"{samples} samples"):
            short_time_validation(series, pred, window_fs=window_fs)
