import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fmoheom import kernel
from fmoheom.heom import (
    HEOMPropagator,
    IntegrationError,
    IntegratorConfig,
    check_step_count,
    convergence_study,
    from_real,
    to_real,
)
from fmoheom.hierarchy import enumerate_hierarchy
from fmoheom.linalg import NonHermitianError
from fmoheom.model import (
    FMO_HAMILTONIAN_CM,
    MAX_SAMPLES,
    SystemParams,
    fret_state,
    localized_state,
)

from conftest import random_hermitian
from heom_reference import (
    apply_liouvillian,
    apply_phi,
    apply_theta,
    apply_trapping,
    reference_coefficients,
    reference_rhs,
)


def random_hierarchy(rng, count):
    """Random Hermitian hierarchy state, complex, shape (count, 7, 7)."""
    return np.stack([random_hermitian(rng, 7) for _ in range(count)])


def counting(prop):
    """Wrap prop.rhs; return the list whose first entry counts its calls."""
    calls = [0]
    rhs = prop.rhs

    def counted(*args, **kwargs):
        calls[0] += 1
        return rhs(*args, **kwargs)

    prop.rhs = counted
    return calls


def unreachable_rhs(*args, **kwargs):
    """An RHS for a run that must be refused before its first RHS call."""
    raise AssertionError("the run reached an RHS call")


@pytest.fixture(scope="module")
def params():
    return SystemParams(truncation_N=2)


@pytest.fixture(scope="module")
def coef(params):
    return reference_coefficients(params)


class TestSuperoperators:
    def test_liouvillian_identity(self, coef):
        np.testing.assert_allclose(
            apply_liouvillian(np.eye(7, dtype=complex), coef), 0, atol=1e-15)

    def test_liouvillian_self(self, coef):
        np.testing.assert_allclose(
            apply_liouvillian(coef.h_shifted, coef), 0, atol=1e-15)

    def test_liouvillian_traceless(self, coef):
        rng = np.random.default_rng(0)
        g = random_hermitian(rng, 7)
        out = apply_liouvillian(g, coef)
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

    def test_phi_theta_hermiticity(self, coef):
        rng = np.random.default_rng(1)
        g = random_hermitian(rng, 7)
        for k in range(1, 8):
            out = apply_phi(k, g)
            np.testing.assert_allclose(out, out.conj().T, atol=1e-14)
            out = apply_theta(k, g, coef)
            np.testing.assert_allclose(out, out.conj().T, atol=1e-14)

    def test_theta_on_projector(self, coef):
        k = 4
        v = np.zeros((7, 7), dtype=complex)
        v[k - 1, k - 1] = 1.0
        out = apply_theta(k, v, coef)
        np.testing.assert_allclose(out, 2.0 * coef.theta_anti * v,
                                   atol=1e-15)

    def test_theta_trace(self, coef):
        rng = np.random.default_rng(2)
        g = random_hermitian(rng, 7)
        for k in range(1, 8):
            tr = np.trace(apply_theta(k, g, coef))
            expected = 2.0 * coef.theta_anti * g[k - 1, k - 1]
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
        dq = prop.rhs(0.0, prop.initial_hierarchy(rho))
        h = reference_coefficients(p).h_shifted
        expected = -1j * (h @ rho - rho @ h)
        np.testing.assert_allclose(from_real(dq[0]), expected, atol=1e-15)

    def test_top_trace_conserved_without_trapping(self):
        p = SystemParams(truncation_N=2, trap_rate_inv_ps=0)
        prop = HEOMPropagator(p)
        rng = np.random.default_rng(4)
        dq = prop.rhs(0.0, to_real(random_hierarchy(rng, prop.count)))
        assert abs(np.trace(dq[0])) < 1e-12

    def test_empty_trap_set_is_no_trapping(self):
        # No trap site and a zero trap rate give the same generator.
        props = [HEOMPropagator(SystemParams(truncation_N=2, **kw))
                 for kw in ({"trap_sites": ()}, {"trap_rate_inv_ps": 0})]
        q = to_real(random_hierarchy(np.random.default_rng(9), props[0].count))
        assert np.array_equal(props[0].rhs(0.0, q), props[1].rhs(0.0, q))

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
        a = rng.normal(size=shape)
        b = rng.normal(size=shape)
        al, be = 0.3, -1.7
        lhs = prop.rhs(0.0, al * a + be * b)
        rhs = al * prop.rhs(0.0, a) + be * prop.rhs(0.0, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_preserves_hermiticity(self, params):
        # The generator maps a Hermitian hierarchy to a Hermitian one, so
        # the real storage Q represents the derivative without loss; and
        # from a positive physical state the trace does not rise.
        prop = HEOMPropagator(params)
        rng = np.random.default_rng(7)
        z = random_hierarchy(rng, prop.count)
        z[0] = z[0] @ z[0]
        z[0] /= np.trace(z[0])
        dz = reference_rhs(prop, z)
        defect = np.max(np.abs(dz - np.conj(np.swapaxes(dz, 1, 2))))
        assert defect < 1e-12
        dq = prop.rhs(0.0, to_real(z))
        np.testing.assert_allclose(from_real(dq), dz, rtol=0, atol=1e-12)
        assert np.trace(dq[0]) <= 0.0

    @pytest.mark.parametrize("params", [
        SystemParams(truncation_N=2),
        SystemParams(truncation_N=3),
        SystemParams(truncation_N=2, temperature_K=77.0, lambda_cm=100.0,
                     gamma_inv_fs=100.0, trap_rate_inv_ps=0, trap_sites=(3,)),
    ], ids=["2", "3", "2-77K"])
    def test_matches_superoperators(self, params):
        # The kernel against the per-node definition of every HEOM term,
        # its coefficients derived independently, at the paper's bath and
        # at a colder, stronger and slower one.
        prop = HEOMPropagator(params)
        rng = np.random.default_rng(8)
        z = random_hierarchy(rng, prop.count)
        np.testing.assert_allclose(from_real(prop.rhs(0.0, to_real(z))),
                                   reference_rhs(prop, z), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_trunc", range(5))
    def test_up_table_inverts_down_table(self, n_trunc):
        # Every edge n - e_k -> n (n_k > 0) is read from both ends; a node
        # has no up neighbour along any site exactly when it is at depth N.
        space = HEOMPropagator(SystemParams(truncation_N=n_trunc)).space
        n, down, up = space.tables
        node, site = np.nonzero(n)
        np.testing.assert_array_equal(up[down[node, site], site], node)
        top = n.sum(axis=1) == n_trunc
        np.testing.assert_array_equal(up == -1, np.repeat(top[:, None], 7, axis=1))

    def test_shape_mismatch(self, params):
        prop = HEOMPropagator(params)
        with pytest.raises(ValueError):
            prop.rhs(0.0, np.zeros((3, 7, 7), dtype=complex))

    @pytest.mark.parametrize("state", [
        lambda count: np.zeros((count, 7, 7), dtype=complex),
        lambda count: np.zeros((count, 7 * 7)),
    ], ids=["complex", "flat"])
    def test_rejects_bad_state(self, params, state):
        # Q storage is real: a complex state is an error, not a warning
        # with the imaginary part dropped.
        prop = HEOMPropagator(params)
        with pytest.raises(ValueError, match="float64 array of shape"):
            prop.rhs(0.0, state(prop.count))

    def test_out_buffer(self, params):
        prop = HEOMPropagator(params)
        rng = np.random.default_rng(10)
        q = to_real(random_hierarchy(rng, prop.count))
        out = np.empty_like(q)
        res = prop.rhs(0.0, q, out=out)
        assert res is out
        np.testing.assert_array_equal(out, prop.rhs(0.0, q))

    def test_rejects_out_overlapping_state(self, params):
        # The kernel reads the neighbours of a node after it has written
        # other nodes' derivatives, so an output sharing the state's
        # memory is refused, whether it is the state or a shifted view.
        prop = HEOMPropagator(params)
        size = prop.count * 49
        buf = np.random.default_rng(11).normal(size=size + 49)
        q = buf[:size].reshape(prop.state_shape)
        for out in (q, buf[49:].reshape(prop.state_shape)):
            with pytest.raises(ValueError, match="must not overlap"):
                prop.rhs(0.0, q, out=out)

    def test_rejects_read_only_derivative(self, params):
        # A read-only state is read as it is; a read-only output is refused
        # before the kernel writes to it.
        prop = HEOMPropagator(params)
        q = to_real(random_hierarchy(np.random.default_rng(12), prop.count))
        q.flags.writeable = False
        out = np.zeros(prop.state_shape)
        out.flags.writeable = False
        with pytest.raises(ValueError, match="derivative must be writeable"):
            prop.rhs(0.0, q, out=out)
        assert not out.any()
        out.flags.writeable = True
        np.testing.assert_array_equal(prop.rhs(0.0, q, out=out), prop.rhs(0.0, q.copy()))

    @pytest.mark.parametrize("which", ["state", "derivative"])
    @pytest.mark.parametrize("bad", [
        lambda shape: np.zeros(shape, dtype=np.float32),
        lambda shape: np.zeros(shape[:1] + (7, 14))[:, :, ::2],
        lambda shape: np.zeros(shape).transpose(0, 2, 1),
        lambda shape: np.zeros((shape[0] + 1, 7, 7)),
    ], ids=["float32", "strided", "transposed", "shape"])
    def test_rejects_non_contiguous_float64(self, params, which, bad):
        prop = HEOMPropagator(params)
        good = np.zeros(prop.state_shape)
        q, out = ((bad(prop.state_shape), good) if which == "state"
                  else (good, bad(prop.state_shape)))
        with pytest.raises(ValueError, match="C-contiguous float64 array of shape"):
            prop.rhs(0.0, q, out=out)


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

    @staticmethod
    def _solve_ivp_reference(prop, traj):
        """scipy's RK45 on the node-by-node complex generator, same settings,
        and the dense output `run` defines on its steps: at each output time
        t, node 0 of sum_i c_i (t - t_j)^i L^i y_j, i = 0..6, with c_i the
        coefficients of the fifth-order solution and y_j scipy's state at
        the start t_j of the step that holds t."""
        cfg, shape = prop.config, (prop.count, 7, 7)
        z0 = np.zeros(shape, dtype=complex)
        z0[0] = localized_state(1)
        sol = solve_ivp(lambda t, y: reference_rhs(prop, y.reshape(shape)).reshape(-1),
                        (0.0, traj.times_fs[-1]), z0.reshape(-1), method="RK45",
                        rtol=cfg.rel_tol, atol=cfg.abs_tol,
                        first_step=cfg.initial_step_fs, max_step=cfg.max_step_fs)
        assert sol.status == 0
        # Without t_eval, sol.t are the step boundaries and sol.y the states
        # there. Step j spans (t_j, t_(j+1)]; t = 0 lies in the first.
        steps = np.maximum(np.searchsorted(sol.t, traj.times_fs) - 1, 0)
        coefficients = [1, 1, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600]
        ref = np.empty((traj.times_fs.size, 7, 7), dtype=complex)
        for j in np.unique(steps):
            w = [sol.y[:, j].reshape(shape)]
            for _ in range(6):
                w.append(reference_rhs(prop, w[-1]))
            for i in np.flatnonzero(steps == j):
                dt = traj.times_fs[i] - sol.t[j]
                ref[i] = sum(c * dt ** k * wk[0]
                             for k, (c, wk) in enumerate(zip(coefficients, w)))
        return sol, ref

    def test_dense_output_matches_solve_ivp(self):
        # The loop on real storage against scipy's RK45 on the complex
        # state: the same step sequence, and the physical block of the
        # dense output against the step polynomial on scipy's states.
        p = SystemParams(truncation_N=1, t_end_fs=60.0, dt_out_fs=0.25)
        prop = HEOMPropagator(p)
        traj = prop.run(localized_state(1))
        sol, ref = self._solve_ivp_reference(prop, traj)
        assert traj.stats.nfev == sol.nfev
        # Several samples per step (six RHS calls), so the dense output is
        # really exercised.
        assert traj.times_fs.size >= 3 * (sol.nfev // 6)
        np.testing.assert_allclose(traj.rhos, ref, rtol=0, atol=1e-14)

    def test_forced_rejection_matches_solve_ivp(self):
        # A 10 fs first step fails the error test and is cut back.
        p = SystemParams(truncation_N=1, t_end_fs=60.0, dt_out_fs=0.5)
        prop = HEOMPropagator(p, IntegratorConfig(initial_step_fs=10.0))
        calls = counting(prop)
        traj = prop.run(localized_state(1))
        stats = traj.stats
        assert stats.rejected >= 1
        assert stats.nfev == calls[0] == 1 + 6 * (stats.accepted + stats.rejected)
        assert 0 < stats.min_step_fs <= stats.max_step_fs < 10.0
        sol, ref = self._solve_ivp_reference(prop, traj)
        assert stats.nfev == sol.nfev
        np.testing.assert_allclose(traj.rhos, ref, rtol=0, atol=1e-14)

    def test_step_after_rejection_does_not_grow(self):
        # A linear, time-independent decay y' = -2 y: once y has fallen far
        # below abs_tol the step keeps growing until an attempt fails the
        # error test. The step that follows a rejection must not be larger
        # than the rejected one, as in scipy's RK45.
        def decay_rhs(t, q, out):
            return np.multiply(q, -2.0, out=out)

        prop = HEOMPropagator(SystemParams(truncation_N=0, t_end_fs=20.0))
        prop.rhs = decay_rhs
        stats = prop.run(localized_state(1)).stats
        cfg = prop.config
        sol = solve_ivp(lambda t, z: -2.0 * z, (0.0, 20.0),
                        localized_state(1).astype(complex).reshape(-1),
                        method="RK45", rtol=cfg.rel_tol, atol=cfg.abs_tol,
                        first_step=cfg.initial_step_fs, max_step=cfg.max_step_fs)
        assert stats.rejected >= 1
        assert stats.nfev == sol.nfev

    def test_failed_step_raises(self):
        # A derivative that turns NaN after 2 fs makes the error estimate of
        # the step past it NaN; the run stops at the end of that attempt.
        prop = HEOMPropagator(SystemParams(truncation_N=1, t_end_fs=10.0))
        calls = counting(prop)
        rhs = prop.rhs
        first_nan = []

        def nan_after_2fs(t, q, out):
            rhs(t, q, out=out)
            if t > 2.0:
                out[...] = np.nan
                first_nan.append(calls[0])
            return out

        prop.rhs = nan_after_2fs
        with pytest.raises(IntegrationError, match=r"failed at t = \d\.\d+ fs "
                           r"\(the error estimate was not finite\)"):
            prop.run(localized_state(1))
        # At most the five remaining calls of that attempt follow the first NaN.
        assert first_nan and calls[0] - first_nan[0] <= 5

    def test_step_size_underflow_raises(self):
        # A generator 1e20 times stiffer after the first step rejects every
        # attempt at t = 0.01 fs until the step falls below ten ulps of t.
        # (No step cap can force this: check_step_count refuses a cap that
        # small.) Each attempt is six chain calls after the FSAL call f(y).
        prop = HEOMPropagator(SystemParams(truncation_N=1, t_end_fs=10.0))
        rhs = prop.rhs

        def stiff_after_first_step(t, q, out=None):
            out = rhs(t, q, out)
            if t > 0:
                out *= 1e20
            return out

        prop.rhs = stiff_after_first_step
        calls = counting(prop)
        with pytest.raises(IntegrationError, match=r"failed at t = 0\.01 fs "
                           r"\(step-size underflow or tolerance not met\)"):
            prop.run(localized_state(1))
        assert calls[0] > 1 + 6 * 10 and (calls[0] - 1) % 6 == 0

    @pytest.mark.parametrize("t_end, cap", [(2.0, 1e-300), (2.0, 1e-7),
                                             (10.0, 5e-324)])
    def test_a_cap_that_forces_too_many_steps_is_refused(self, t_end, cap):
        # Such a run cannot end (at 1e-300 fs) or takes hours; it is
        # refused before the first RHS call.
        prop = HEOMPropagator(SystemParams(truncation_N=1, t_end_fs=t_end),
                              IntegratorConfig(max_step_fs=cap))
        prop.rhs = unreachable_rhs  # without the check: fail now, not run on
        calls = counting(prop)
        with pytest.raises(ValueError, match=r"^t_end_fs = .* over max_step_fs = .* "
                           r"forces at least .* steps, above the 5000000 step limit$"):
            prop.run(localized_state(1))
        assert calls[0] == 0

    def test_step_limit_is_inclusive(self):
        # 5000000 forced steps are allowed; the first float above is not.
        assert MAX_SAMPLES == 5_000_000
        check_step_count(2.0, 4e-7)
        with pytest.raises(ValueError, match="step limit"):
            check_step_count(2.0, np.nextafter(4e-7, 0.0))

    def test_convergence_study_refuses_a_cap_that_forces_too_many_steps(
            self, monkeypatch):
        calls = []
        monkeypatch.setattr(HEOMPropagator, "rhs",
                            lambda self, *a, **k: calls.append(1) or unreachable_rhs())
        p = SystemParams(truncation_N=0, t_end_fs=10.0)
        with pytest.raises(ValueError, match="step limit"):
            convergence_study(localized_state(1), p, [1, 2],
                              IntegratorConfig(max_step_fs=1e-6))
        assert calls == []

    def test_stats_count_every_evaluation(self):
        prop = HEOMPropagator(SystemParams(truncation_N=3, t_end_fs=100.0))
        calls = counting(prop)
        stats = prop.run(localized_state(1)).stats
        assert stats.rejected == 0
        assert stats.nfev == calls[0] == 1 + 6 * stats.accepted
        assert stats.min_step_fs == prop.config.initial_step_fs
        assert stats.max_step_fs <= prop.config.max_step_fs

    def test_max_step_exceeds_the_cap_by_at_most_one_ulp(self):
        # The stats report the accepted h = t_new - t, rounded as RK45
        # rounds it: a capped step can read above the cap, never by more
        # than one ulp of t_new (at most t_end).
        params = SystemParams(truncation_N=3, t_end_fs=1000.0, dt_out_fs=1000.0)
        prop = HEOMPropagator(params)
        stats = prop.run(localized_state(1)).stats
        cap = prop.config.max_step_fs
        assert cap < stats.max_step_fs <= cap + np.spacing(params.t_end_fs)

    @pytest.mark.parametrize("start", ["localized", "fret"])
    def test_states_are_hermitian_bit_for_bit(self, basis, start):
        # linalg's one Hermiticity tolerance rests on this: the starts and
        # every state run returns equal their conjugate transposes exactly.
        rho0 = localized_state(1) if start == "localized" else fret_state(6, basis)
        assert np.array_equal(rho0, rho0.conj().T)
        params = SystemParams(truncation_N=2, t_end_fs=100.0, dt_out_fs=1.0)
        rhos = HEOMPropagator(params).run(rho0).rhos
        assert np.array_equal(rhos, rhos.conj().swapaxes(-2, -1))

    @pytest.mark.parametrize("kind,x", [("localized", x) for x in range(1, 8)]
                             + [("fret", 1), ("fret", 6)])
    def test_first_sample_is_the_start_state(self, basis, kind, x):
        # Sample 0 is the theta = 0 row of the first step's dense output.
        rho0 = localized_state(x) if kind == "localized" else fret_state(x, basis)
        prop = HEOMPropagator(SystemParams(truncation_N=2, t_end_fs=5.0))
        stored = from_real(prop.initial_hierarchy(rho0)[0])
        first = prop.run(rho0).rhos[0]
        assert np.array_equal(first.view(np.uint64), stored.view(np.uint64))

    def test_samples_do_not_depend_on_the_grid(self):
        # Every sample of a step is its own row of one product, so a grid
        # and a coarser grid within it share their samples bit for bit.
        def run(dt_out_fs):
            params = SystemParams(truncation_N=3, t_end_fs=100.0, dt_out_fs=dt_out_fs)
            return HEOMPropagator(params).run(localized_state(1))

        fine, coarse = run(0.5), run(1.0)
        assert np.array_equal(fine.times_fs[::2], coarse.times_fs)
        assert fine.stats == coarse.stats
        assert np.array_equal(fine.rhos[::2].view(np.uint64),
                              coarse.rhos.view(np.uint64))

    def test_complex_hamiltonian_with_zero_imaginary_part(self):
        # A complex dtype is accepted when every imaginary part is zero, and
        # integrates the same real Hamiltonian.
        real = SystemParams(truncation_N=2, t_end_fs=20.0)
        cplx = SystemParams(truncation_N=2, t_end_fs=20.0,
                            hamiltonian_cm=real.hamiltonian_cm.astype(complex))
        runs = [HEOMPropagator(p).run(localized_state(1)) for p in (real, cplx)]
        assert np.array_equal(runs[0].rhos, runs[1].rhos)
        assert runs[0].stats == runs[1].stats

    def test_run_frees_the_integrator(self):
        # Stages, work arrays and error scratch are owned by one call:
        # no block as large as one hierarchy state outlives it.
        prop = HEOMPropagator(SystemParams(truncation_N=4, t_end_fs=5.0))
        state_bytes = np.zeros(prop.state_shape).nbytes
        tracemalloc.start()
        try:
            traj = prop.run(localized_state(1))
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert traj.rhos.nbytes < state_bytes
        sizes = [tr.size for tr in snapshot.traces]
        assert max(sizes) < state_bytes

    def test_run_holds_eight_states(self):
        # y and the chain w_1..w_7: the step pass writes y_new and f(y_new)
        # into w_7's and w_6's buffers, and an accepted step rotates the
        # roles of the buffers instead of copying.
        prop = HEOMPropagator(SystemParams(truncation_N=6, t_end_fs=5.0))
        state_bytes = np.zeros(prop.state_shape).nbytes
        tracemalloc.start()
        try:
            prop.run(localized_state(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8.5 * state_bytes

    def test_non_hermitian_initial_state_rejected(self, params):
        prop = HEOMPropagator(params)
        calls = counting(prop)
        rho = localized_state(1).astype(complex)
        rho[0, 1] = 0.1j
        with pytest.raises(NonHermitianError, match="initial state"):
            prop.initial_hierarchy(rho)
        with pytest.raises(NonHermitianError, match="initial state"):
            prop.run(rho)
        assert calls[0] == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_initial_state_rejected(self, params, value):
        # The gate, not the integrator, must refuse such a start, and name it.
        prop = HEOMPropagator(params)
        calls = counting(prop)
        rho = localized_state(1)
        rho[3, 3] = value
        with pytest.raises(NonHermitianError,
                           match=r"initial state has non-finite entries at \[\(3, 3\)\]"):
            prop.initial_hierarchy(rho)
        with pytest.raises(NonHermitianError, match="initial state"):
            prop.run(rho)
        assert calls[0] == 0

    @pytest.mark.parametrize("rho", [
        np.pad([[0.5, 0.9], [0.9, 0.5]], (0, 5)), 2.0 * localized_state(1),
        -localized_state(1),
    ], ids=["eigenvalue_-0.4", "trace_2", "negative_population"])
    def test_non_density_initial_state_rejected(self, params, rho):
        # Hermitian starts that are no density operator are refused before
        # the first RHS call, not integrated and found out by the measures.
        prop = HEOMPropagator(params)
        calls = counting(prop)
        with pytest.raises(ValueError, match="initial state is not a density operator"):
            prop.run(rho)
        assert calls[0] == 0

    def test_convergence_study_refuses_a_non_density_start(self, monkeypatch):
        calls = []
        monkeypatch.setattr(HEOMPropagator, "rhs",
                            lambda self, *a, **k: calls.append(1) or unreachable_rhs())
        p = SystemParams(truncation_N=0, t_end_fs=10.0)
        with pytest.raises(ValueError, match="initial state"):
            convergence_study(2.0 * localized_state(1), p, [1, 2])
        assert calls == []

    def test_convergence_study_checks_every_level_first(self, monkeypatch):
        runs = []
        monkeypatch.setattr(HEOMPropagator, "run", lambda self, rho0: runs.append(1))
        p = SystemParams(truncation_N=0, t_end_fs=10.0)
        with pytest.raises(ValueError, match="node limit"):
            convergence_study(localized_state(1), p, [2, 40])
        assert runs == []

    def test_convergence_study_rejects_fractional_level(self, monkeypatch):
        runs = []
        monkeypatch.setattr(HEOMPropagator, "run", lambda self, rho0: runs.append(1))
        p = SystemParams(truncation_N=0, t_end_fs=10.0)
        with pytest.raises(ValueError, match="truncation_N must be an integer"):
            convergence_study(localized_state(1), p, [1.7])
        assert runs == []

    @pytest.mark.parametrize("key,value", [
        ("abs_tol", True), ("rel_tol", False), ("initial_step_fs", True),
        ("max_step_fs", float("nan")), ("abs_tol", 0.0), ("rel_tol", "1e-8"),
        ("rel_tol", 1e-20),
    ])
    def test_integrator_config_rejects(self, key, value):
        with pytest.raises(ValueError, match=key):
            IntegratorConfig(**{key: value})

    def test_bad_initial_shape(self, params):
        prop = HEOMPropagator(params)
        with pytest.raises(ValueError):
            prop.run(np.eye(4, dtype=complex))


def _hamiltonian(entry, dtype=float):
    """The FMO Hamiltonian with `entry` at (1, 2) and its conjugate at (2, 1)."""
    h = FMO_HAMILTONIAN_CM.astype(dtype)
    h[0, 1], h[1, 0] = entry, np.conj(entry)
    return h


def _bind_with_bad_rank(planes, rank):
    """kernel.bind on the tables of the N = 1 hierarchy (8 nodes) with one
    entry of each plane in `planes` (1 down, 2 up) set to `rank`."""
    space = enumerate_hierarchy(7, 1)
    tables = space.tables.copy()
    tables[list(planes), 0, 3] = rank
    kernel.bind(space.count, np.zeros((7, 7)), np.zeros(7), tables, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: SystemParams(hamiltonian_cm=_hamiltonian(-87.7 + 5j, complex)),
                 "hamiltonian_cm must be real", id="complex"),
    pytest.param(lambda: SystemParams(hamiltonian_cm=np.eye(6)),
                 "hamiltonian_cm must be 7x7", id="6x6"),
    pytest.param(lambda: SystemParams(hamiltonian_cm=_hamiltonian(np.nan)),
                 "hamiltonian_cm must be finite", id="nan"),
    pytest.param(lambda: SystemParams(hamiltonian_cm=_hamiltonian(np.inf)),
                 "hamiltonian_cm must be finite", id="+inf"),
    pytest.param(lambda: SystemParams(hamiltonian_cm=_hamiltonian(-np.inf)),
                 "hamiltonian_cm must be finite", id="-inf"),
    pytest.param(lambda: SystemParams(hamiltonian_cm=FMO_HAMILTONIAN_CM + np.eye(7, k=1)),
                 "hamiltonian_cm must be symmetric", id="asymmetric"),
    pytest.param(lambda: _bind_with_bad_rank([1], 8),
                 "down ranks must lie in -1..7", id="down"),
    pytest.param(lambda: _bind_with_bad_rank([2], -2),
                 "up ranks must lie in -1..7", id="up"),
    pytest.param(lambda: _bind_with_bad_rank([1, 2], 8),
                 "down ranks must lie in -1..7", id="down-and-up"),
])
def test_setup_rejection_messages(build, message):
    # The whole text a user reads, whatever order the checks run in.
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
