import numpy as np
import pytest

from fmoheom.model import (
    CM_TO_RADFS,
    FMO_HAMILTONIAN_CM,
    KB_CM_PER_K,
    MAX_SAMPLES,
    SystemParams,
    exciton_basis,
    fret_state,
    localized_state,
    output_steps,
)

from heom_reference import commutator, reference_coefficients


@pytest.fixture(scope="module")
def params():
    return SystemParams(truncation_N=0)


@pytest.fixture(scope="module")
def basis(params):
    return exciton_basis(params)


class TestUnits:
    def test_conversion_factor(self):
        assert abs(CM_TO_RADFS - 2 * np.pi * 2.99792458e-5) < 1e-18

    def test_boltzmann(self):
        assert abs(KB_CM_PER_K - 0.69503) < 1e-5

    def test_kT_at_300K(self):
        assert abs(KB_CM_PER_K * 300.0 - 208.51) < 0.01


class TestHamiltonian:
    def test_paper_entries(self, params):
        h = params.hamiltonian_cm
        assert h[0, 1] == -87.7
        assert h[2, 2] == 0.0
        assert h[3, 4] == -70.7

    def test_converted_entry(self, params):
        h = params.hamiltonian_cm * CM_TO_RADFS
        assert abs(h[0, 1] - (-87.7 * 1.88365e-4)) < 1e-7
        assert abs(h[0, 1] + 0.016520) < 1e-5

    def test_rejects_asymmetric(self):
        h = SystemParams(truncation_N=0).hamiltonian_cm.copy()
        h[0, 1] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            SystemParams(truncation_N=0, hamiltonian_cm=h)

    def test_rejects_complex_entries(self):
        # The kernel reads H as real: the imaginary parts of a complex
        # Hermitian H would be dropped.
        h = FMO_HAMILTONIAN_CM.astype(complex)
        h[0, 1] += 5j
        h[1, 0] -= 5j
        with pytest.raises(ValueError, match="hamiltonian_cm must be real"):
            SystemParams(truncation_N=0, hamiltonian_cm=h)

    def test_keeps_its_own_read_only_copy(self):
        # A frozen, validated SystemParams must not follow later writes
        # into the caller's array, nor take writes of its own.
        h = FMO_HAMILTONIAN_CM.copy()
        p = SystemParams(truncation_N=2, hamiltonian_cm=h)
        h[0, 1] = 999.0
        np.testing.assert_array_equal(p.hamiltonian_cm, FMO_HAMILTONIAN_CM)
        with pytest.raises(ValueError, match="read-only"):
            p.hamiltonian_cm[0, 1] = 999.0

    def test_default_hamiltonian_is_read_only(self):
        # A write into the module constant would change every later
        # default SystemParams in the process.
        with pytest.raises(ValueError, match="read-only"):
            FMO_HAMILTONIAN_CM[0, 1] = FMO_HAMILTONIAN_CM[1, 0] = 999.0
        assert SystemParams(truncation_N=2).hamiltonian_cm[0, 1] == -87.7


class TestLocalizedState:
    @pytest.mark.parametrize("x", [1, 6])
    def test_projector(self, x):
        rho = localized_state(x)
        expected = np.zeros((7, 7))
        expected[x - 1, x - 1] = 1.0
        np.testing.assert_allclose(rho, expected)

    @pytest.mark.parametrize("x", range(1, 8))
    def test_pure(self, x):
        rho = localized_state(x)
        assert abs(np.trace(rho) - 1.0) == 0.0
        assert abs(np.trace(rho @ rho) - 1.0) < 1e-15

    @pytest.mark.parametrize("x", [0, 8, -1, 2.5, True, "3"])
    def test_out_of_range(self, x):
        with pytest.raises(ValueError, match="^x: site"):
            localized_state(x)


class TestExcitonBasis:
    def test_orthogonal(self, basis):
        np.testing.assert_allclose(
            basis.coeffs @ basis.coeffs.T, np.eye(7), atol=1e-10)

    def test_ascending_nondegenerate(self, basis):
        gaps = np.diff(basis.energies_cm)
        assert np.all(gaps > 1.0)

    def test_degenerate_energies_rejected(self):
        h = np.diag([0.0, 0.0, 100.0, 200.0, 300.0, 400.0, 500.0])
        with pytest.raises(ValueError, match="nearly degenerate"):
            exciton_basis(SystemParams(truncation_N=0, hamiltonian_cm=h))

    @pytest.fixture(scope="class")
    def random_params(self):
        # A random symmetric H whose exciton gaps are all at least 1 cm^-1.
        rng = np.random.default_rng(24)
        while True:
            a = rng.normal(scale=100.0, size=(7, 7))
            h = 0.5 * (a + a.T)
            if np.diff(np.linalg.eigvalsh(h)).min() >= 1.0:
                return SystemParams(truncation_N=0, hamiltonian_cm=h)

    @pytest.mark.parametrize("name", ["params", "random_params"])
    def test_phase_rule_and_residual(self, name, request):
        p = request.getfixturevalue(name)
        b = exciton_basis(p)
        h = p.hamiltonian_cm
        assert b.coeffs.dtype == np.float64
        atol = 1e-10 * np.max(np.abs(h))
        for energy, c in zip(b.energies_cm, b.coeffs):
            # The largest-magnitude coefficient of every exciton is positive.
            assert c[np.argmax(np.abs(c))] > 0
            assert np.max(np.abs(h @ c - energy * c)) <= atol
        np.testing.assert_allclose(b.coeffs @ b.coeffs.T, np.eye(7), atol=1e-10)
        np.testing.assert_allclose(
            b.coeffs.T @ np.diag(b.energies_cm) @ b.coeffs, h, rtol=0, atol=atol)

    def test_paper_coefficients(self, basis):
        # Excitons 3 and 6 on sites 1 and 2, paper sign convention.
        assert abs(basis.coeffs[2, 0] - 0.877) < 5e-4
        assert abs(basis.coeffs[2, 1] - 0.440) < 5e-4
        assert abs(basis.coeffs[5, 0] - (-0.456)) < 5e-4
        assert abs(basis.coeffs[5, 1] - 0.871) < 5e-4


class TestFretState:
    def test_weights_x1(self, basis):
        # The population weight |c_rx|^2 of excitons 3 and 6 on site 1.
        assert abs(basis.coeffs[2, 0] ** 2 - 0.769) < 5e-3
        assert abs(basis.coeffs[5, 0] ** 2 - 0.208) < 5e-3

    def test_site_populations_x1(self, basis):
        rho = fret_state(1, basis)
        # Exact full-basis sums; the paper's two-state values are ~0.635/0.307.
        exact_11 = np.sum(basis.coeffs[:, 0] ** 2 * basis.coeffs[:, 0] ** 2)
        exact_22 = np.sum(basis.coeffs[:, 0] ** 2 * basis.coeffs[:, 1] ** 2)
        assert abs(rho[0, 0].real - exact_11) < 1e-12
        assert abs(rho[1, 1].real - exact_22) < 1e-12
        assert abs(rho[0, 0].real - 0.635) < 5e-3
        assert abs(rho[1, 1].real - 0.307) < 5e-3

    @pytest.mark.parametrize("x", range(1, 8))
    def test_stationary_and_normalized(self, basis, params, x):
        rho = fret_state(x, basis)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        h = params.hamiltonian_cm.astype(complex)
        np.testing.assert_allclose(commutator(rho, h), 0, atol=1e-10)

    def test_exciton_diagonal_site_coherent(self, basis):
        rho = fret_state(1, basis)
        in_exciton = basis.coeffs @ rho @ basis.coeffs.T
        off = in_exciton - np.diag(np.diag(in_exciton))
        np.testing.assert_allclose(off, 0, atol=1e-12)
        assert abs(rho[0, 1]) > 0.1  # site-basis coherence is large

    def test_out_of_range(self, basis):
        with pytest.raises(ValueError):
            fret_state(0, basis)


class TestReferenceCoefficients:
    def test_values(self):
        # The paper's bath: lambda = 35 cm^-1, gamma^-1 = 50 fs, 300 K.
        coef = reference_coefficients(SystemParams(truncation_N=0))
        np.testing.assert_allclose(coef.lam, 35.0 * CM_TO_RADFS)
        np.testing.assert_allclose(coef.gamma, 0.02)
        kT = KB_CM_PER_K * 300.0 * CM_TO_RADFS
        np.testing.assert_allclose(coef.theta_comm, 2 * 35.0 * CM_TO_RADFS * kT)
        np.testing.assert_allclose(coef.theta_anti, 35.0 * CM_TO_RADFS * 0.02)
        np.testing.assert_allclose(
            coef.h_shifted,
            (FMO_HAMILTONIAN_CM + 35.0 * np.eye(7)) * CM_TO_RADFS)


class TestParamValidation:
    def test_defaults_reproduce_paper(self):
        p = SystemParams()
        assert p.truncation_N == 12
        assert p.lambda_cm == 35.0
        assert p.gamma_inv_fs == 50.0
        assert p.temperature_K == 300.0
        assert p.trap_rate_inv_ps == 1.0
        assert p.trap_sites == (3, 4)
        assert p.t_end_fs == 1000.0

    def test_trap_rate(self):
        assert SystemParams().trap_rate_inv_fs == 1e-3
        assert SystemParams(trap_rate_inv_ps=0).trap_rate_inv_fs == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"lambda_cm": -1.0},
        {"gamma_inv_fs": 0.0},
        {"temperature_K": -5.0},
        {"truncation_N": -1},
        {"trap_sites": (0, 4)},
        {"dt_out_fs": 0.0},
        {"truncation_N": 2.5},
        {"truncation_N": "3"},
        {"trap_sites": (3.5,)},
        {"trap_sites": 3},
        {"truncation_N": True},
        {"trap_sites": (True,)},
        {"lambda_cm": True},
        {"trap_rate_inv_ps": False},
        {"t_end_fs": True},
        {"hamiltonian_cm": np.eye(6)},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SystemParams(**kwargs)

    @pytest.mark.parametrize("key,value", [
        ("lambda_cm", float("nan")),
        ("temperature_K", float("inf")),
        ("gamma_inv_fs", float("nan")),
        ("trap_rate_inv_ps", float("inf")),
        ("t_end_fs", float("nan")),
    ])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            SystemParams(**{key: value})

    def test_non_finite_hamiltonian_rejected(self):
        h = FMO_HAMILTONIAN_CM.copy()
        h[0, 1] = h[1, 0] = np.nan
        with pytest.raises(ValueError, match="hamiltonian_cm"):
            SystemParams(hamiltonian_cm=h)

    def test_duplicate_trap_sites_rejected(self):
        with pytest.raises(ValueError, match="trap_sites"):
            SystemParams(trap_sites=(3, 3))

    @pytest.mark.parametrize("t_end,dt_out", [(11.0, 4.0), (1.0, 3.0), (10.0, 0.3)])
    def test_output_grid_must_end_at_t_end(self, t_end, dt_out):
        with pytest.raises(ValueError, match="t_end_fs.*dt_out_fs"):
            SystemParams(t_end_fs=t_end, dt_out_fs=dt_out)

    def test_output_grid_size_limit(self):
        # 1e13 intervals: np.arange in output_times would ask for 73 TiB.
        with pytest.raises(ValueError, match="t_end_fs.*dt_out_fs.*limit"):
            SystemParams(t_end_fs=1e4, dt_out_fs=1e-9)
        with pytest.raises(ValueError, match="inf output intervals"):
            SystemParams(dt_out_fs=1e-320)  # the ratio overflows to inf
        assert output_steps(MAX_SAMPLES * 1e-3, 1e-3) == MAX_SAMPLES
        with pytest.raises(ValueError, match="limit"):
            output_steps((MAX_SAMPLES + 1) * 1e-3, 1e-3)

    def test_output_grid_rounding_accepted(self):
        # 2.3 / 0.1 is 22.999999999999996 in floating point.
        assert output_steps(2.3, 0.1) == 23
        SystemParams(t_end_fs=2.3, dt_out_fs=0.1)

    @pytest.mark.parametrize("t_end,dt_out", [(2.3, 0.1), (9.99999999999, 1.0),
                                              (100.0, 0.5)])
    def test_output_times_end_at_t_end(self, t_end, dt_out):
        times = SystemParams(t_end_fs=t_end, dt_out_fs=dt_out).output_times()
        assert times.size == output_steps(t_end, dt_out) + 1
        assert times[-1] == t_end
        np.testing.assert_array_equal(times[:-1], np.arange(times.size - 1) * dt_out)

    def test_node_limit(self):
        assert SystemParams(truncation_N=26).truncation_N == 26  # 4 272 048 nodes
        with pytest.raises(ValueError, match="truncation_N = 27 .* node limit"):
            SystemParams(truncation_N=27)
