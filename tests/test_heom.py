import gc

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp

from fmoheom.heom import (
    HEOMPropagator,
    IntegratorConfig,
    apply_liouvillian,
    apply_phi,
    apply_theta,
    apply_trapping,
    shifted_hamiltonian,
)
from fmoheom.model import SystemParams, localized_state, thermal_prefactors

from conftest import random_hermitian


@pytest.fixture(scope="module")
def params():
    return SystemParams(truncation_N=2)


@pytest.fixture(scope="module")
def pref(params):
    return thermal_prefactors(params)


@pytest.fixture(scope="module")
def h_shift(params):
    return shifted_hamiltonian(params)


class TestSuperoperators:
    def test_liouvillian_identity(self, h_shift):
        np.testing.assert_allclose(
            apply_liouvillian(np.eye(7, dtype=complex), h_shift), 0, atol=1e-15)

    def test_liouvillian_self(self, h_shift):
        np.testing.assert_allclose(
            apply_liouvillian(h_shift, h_shift), 0, atol=1e-15)

    def test_liouvillian_traceless(self, h_shift):
        rng = np.random.default_rng(0)
        g = random_hermitian(rng, 7)
        out = apply_liouvillian(g, h_shift)
        assert abs(np.trace(out)) < 1e-14

    def test_phi_on_diagonal(self):
        g = np.diag(np.arange(7, dtype=complex))
        np.testing.assert_allclose(apply_phi(3, g), 0, atol=1e-15)

    def test_phi_on_offdiagonal_ket_bra(self):
        g = np.zeros((7, 7), dtype=complex)
        g[1, 4] = 1.0  # |2><5|
        out = apply_phi(2, g)
        expected = np.zeros((7, 7), dtype=complex)
        expected[1, 4] = 1j
        np.testing.assert_allclose(out, expected)

    def test_phi_theta_hermiticity(self, pref):
        rng = np.random.default_rng(1)
        g = random_hermitian(rng, 7)
        for k in range(1, 8):
            out = apply_phi(k, g)
            np.testing.assert_allclose(out, out.conj().T, atol=1e-14)
            out = apply_theta(k, g, pref)
            np.testing.assert_allclose(out, out.conj().T, atol=1e-14)

    def test_theta_on_projector(self, pref):
        k = 4
        v = np.zeros((7, 7), dtype=complex)
        v[k - 1, k - 1] = 1.0
        out = apply_theta(k, v, pref)
        np.testing.assert_allclose(out, 2.0 * pref.theta_anti[k - 1] * v,
                                   atol=1e-15)

    def test_theta_trace(self, pref):
        rng = np.random.default_rng(2)
        g = random_hermitian(rng, 7)
        for k in range(1, 8):
            tr = np.trace(apply_theta(k, g, pref))
            expected = 2.0 * pref.theta_anti[k - 1] * g[k - 1, k - 1]
            assert abs(tr - expected) < 1e-13

    def test_trapping_projector(self):
        g = np.zeros((7, 7), dtype=complex)
        g[2, 2] = 1.0  # |3><3|
        np.testing.assert_allclose(
            apply_trapping(g, (3, 4), 0.5), -1.0 * g, atol=1e-15)

    def test_trapping_untrapped_site(self):
        g = np.zeros((7, 7), dtype=complex)
        g[0, 0] = 1.0
        np.testing.assert_allclose(apply_trapping(g, (3, 4), 0.5), 0, atol=1e-15)

    def test_trapping_zero_rate(self):
        rng = np.random.default_rng(3)
        g = random_hermitian(rng, 7)
        np.testing.assert_allclose(apply_trapping(g, (3, 4), 0.0), 0)

    def test_trapping_negative_rate(self):
        with pytest.raises(ValueError):
            apply_trapping(np.eye(7), (3, 4), -1.0)


class TestRHS:
    def test_n0_is_unitary_generator(self):
        p = SystemParams(truncation_N=0, trap_rate_inv_ps=0)
        prop = HEOMPropagator(p)
        rho = localized_state(1)
        dz = prop.rhs(0.0, prop.initial_hierarchy(rho))
        expected = -1j * (prop.h_shifted @ rho - rho @ prop.h_shifted)
        np.testing.assert_allclose(dz[0], expected, atol=1e-15)

    def test_top_trace_conserved_without_trapping(self):
        p = SystemParams(truncation_N=2, trap_rate_inv_ps=0)
        prop = HEOMPropagator(p)
        rng = np.random.default_rng(4)
        z = np.stack([random_hermitian(rng, 7) for _ in range(prop.count)])
        dz = prop.rhs(0.0, z)
        assert abs(np.trace(dz[0])) < 1e-12

    def test_top_trace_with_trapping(self, params):
        prop = HEOMPropagator(params)
        rng = np.random.default_rng(5)
        rho = random_hermitian(rng, 7)
        dz = prop.rhs(0.0, prop.initial_hierarchy(rho))
        r = params.trap_rate_inv_fs
        expected = -2.0 * r * (rho[2, 2] + rho[3, 3])
        assert abs(np.trace(dz[0]) - expected) < 1e-13

    def test_linearity(self, params):
        prop = HEOMPropagator(params)
        rng = np.random.default_rng(6)
        shape = (prop.count, 7, 7)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        al, be = 0.3, -1.7
        lhs = prop.rhs(0.0, al * a + be * b)
        rhs = al * prop.rhs(0.0, a) + be * prop.rhs(0.0, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_preserves_hermiticity(self, params):
        prop = HEOMPropagator(params)
        rng = np.random.default_rng(7)
        z = np.stack([random_hermitian(rng, 7) for _ in range(prop.count)])
        dz = prop.rhs(0.0, z)
        defect = np.max(np.abs(dz - np.conj(np.swapaxes(dz, 1, 2))))
        assert defect < 1e-12

    @pytest.mark.parametrize("n_trunc", [2, 3])
    def test_matches_superoperators(self, n_trunc):
        # The kernel against the per-node definition of every HEOM term.
        p = SystemParams(truncation_N=n_trunc)
        prop = HEOMPropagator(p)
        space, pref = prop.space, prop.pref
        rng = np.random.default_rng(8)
        shape = (prop.count, 7, 7)
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        expected = np.empty_like(z)
        for c in range(prop.count):
            nk = space.indices[c]
            d = -1j * apply_liouvillian(z[c], prop.h_shifted)
            d -= (nk @ pref.gamma) * z[c]
            d += apply_trapping(z[c], p.trap_sites, p.trap_rate_inv_fs)
            for k in range(7):
                up, down = space.neighbors_plus[c, k], space.neighbors_minus[c, k]
                if up >= 0:
                    d += apply_phi(k + 1, z[up])
                if down >= 0:
                    d += nk[k] * apply_theta(k + 1, z[down], pref)
            expected[c] = d
        np.testing.assert_allclose(prop.rhs(0.0, z), expected, rtol=0, atol=1e-13)

    def test_shape_mismatch(self, params):
        prop = HEOMPropagator(params)
        with pytest.raises(ValueError):
            prop.rhs(0.0, np.zeros((3, 7, 7), dtype=complex))


class TestIntegration:
    def test_unitary_limit_conservation(self):
        p = SystemParams(truncation_N=0, trap_rate_inv_ps=0,
                         t_end_fs=1000.0, dt_out_fs=5.0)
        traj = HEOMPropagator(p).run(localized_state(1))
        assert np.max(np.abs(traj.traces() - 1.0)) < 1e-8
        purity = np.real(np.einsum("tij,tji->t", traj.rhos, traj.rhos))
        assert np.max(np.abs(purity - 1.0)) < 1e-7
        # populations actually move
        assert traj.populations()[:, 0].min() < 0.9

    def test_lambda_to_zero_matches_unitary(self):
        kwargs = dict(trap_rate_inv_ps=0, lambda_cm=1e-8,
                      t_end_fs=200.0, dt_out_fs=5.0)
        t2 = HEOMPropagator(SystemParams(truncation_N=2, **kwargs)).run(
            localized_state(1))
        t0 = HEOMPropagator(SystemParams(truncation_N=0, **kwargs)).run(
            localized_state(1))
        assert np.max(np.abs(t2.rhos - t0.rhos)) < 1e-7

    def test_trajectory_invariants(self, traj_x1_n6):
        # Hermiticity, positivity, monotone trace with trapping.
        for rho in traj_x1_n6.rhos[::20]:
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
            assert np.linalg.eigvalsh(rho).min() > -1e-6
        traces = traj_x1_n6.traces()
        assert np.all(np.diff(traces) <= 1e-12)
        assert traces[0] == pytest.approx(1.0, abs=1e-12)

    def test_tolerance_order_check(self):
        base = dict(truncation_N=2, t_end_fs=200.0, dt_out_fs=200.0)
        coarse = HEOMPropagator(
            SystemParams(**base),
            IntegratorConfig(abs_tol=1e-10, rel_tol=1e-8),
        ).run(localized_state(1))
        fine = HEOMPropagator(
            SystemParams(**base),
            IntegratorConfig(abs_tol=5e-11, rel_tol=5e-9),
        ).run(localized_state(1))
        diff = abs(coarse.rhos[-1][0, 0] - fine.rhos[-1][0, 0])
        assert diff < 1e-8

    def test_dense_output_matches_solve_ivp(self):
        # The physical-block interpolant against scipy's own dense output.
        p = SystemParams(truncation_N=1, t_end_fs=60.0, dt_out_fs=0.25)
        prop = HEOMPropagator(p)
        traj = prop.run(localized_state(1))
        cfg = prop.config
        sol = solve_ivp(prop._rhs_flat, (0.0, p.t_end_fs),
                        prop.initial_hierarchy(localized_state(1)).reshape(-1),
                        method="RK45", t_eval=traj.times_fs,
                        rtol=cfg.rel_tol, atol=cfg.abs_tol,
                        first_step=cfg.initial_step_fs, max_step=cfg.max_step_fs)
        assert sol.status == 0
        # Several samples per step (six RHS calls), so the interpolant is
        # really exercised.
        assert traj.times_fs.size >= 3 * (sol.nfev // 6)
        ref = sol.y[:49].T.reshape(-1, 7, 7)
        np.testing.assert_allclose(traj.rhos, ref, rtol=0, atol=1e-14)

    def test_run_frees_the_integrator(self):
        prop = HEOMPropagator(SystemParams(truncation_N=1, t_end_fs=5.0))
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            prop.run(localized_state(1))
            gc.collect()
            assert not any(isinstance(o, RK45) for o in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()

    def test_overshooting_grid_override(self, params):
        prop = HEOMPropagator(params)
        with pytest.raises(ValueError, match="t_end_fs.*dt_out_fs"):
            prop.run(localized_state(1), t_end_fs=11.0, dt_out_fs=4.0)

    def test_bad_initial_shape(self, params):
        prop = HEOMPropagator(params)
        with pytest.raises(ValueError):
            prop.run(np.eye(4, dtype=complex))
