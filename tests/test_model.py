import numpy as np
import pytest
from dataclasses import replace

from conftest import linear_response_params, sta_params
from knosim import dynamics, fock, logical, model, twolevel
from knosim.errors import ConfigError, SingularDriveError

ALPHA0 = np.sqrt(2)
E4 = np.exp(4.0)


@pytest.fixture(scope="module")
def params():
    return linear_response_params()


@pytest.fixture(scope="module")
def frame(params):
    return logical.build_frame(params.alpha0, params.dim)


def project2(op, frame):
    """2x2 matrix of an operator in the orthonormal logical basis."""
    basis = np.array([frame.ket0, frame.ket1])
    return basis.conj() @ op @ basis.T


class TestParams:
    def test_alpha0_derived(self, params):
        assert abs(params.alpha0 - ALPHA0) < 1e-15
        assert abs(params.pump / params.kerr - params.alpha0**2) < 1e-12

    def test_stabilizer_ratio(self, params):
        assert abs(params.stabilizer_ratio - 0.1) < 1e-12

    def test_stabilizer_warning(self):
        with pytest.warns(UserWarning, match="stabilizer ratio"):
            linear_response_params(omega0=2 * np.pi * 1000 / 3)

    def test_chi(self):
        assert abs(linear_response_params(chi=0.7).chi - 0.7) < 1e-12

    def test_chi_undefined(self):
        with pytest.raises(ConfigError, match="chi undefined"):
            sta_params(delta_z=0.0, delta_0=1.0)

    def test_bad_schedule(self):
        with pytest.raises(ConfigError):
            sta_params(schedule="quintic")

    @pytest.mark.parametrize(
        "name, value",
        [(n, v) for n in ("kerr", "pump", "omega0", "delta_z", "delta_0", "tau", "phi")
         for v in (np.nan, np.inf)]
        + [("dim", 30.0), ("dim", "30")],
    )
    def test_rejects_non_finite_and_non_integer_dim(self, name, value):
        with pytest.raises(ConfigError, match=name):
            sta_params(**{name: value})


class TestRampSchedule:
    @pytest.mark.parametrize("shape", ["linear", "cosine"])
    def test_endpoints(self, shape):
        s = model.RampSchedule(shape=shape, tau=3.0)
        assert abs(s.theta(0.0)) < 1e-15
        assert abs(s.theta(3.0) - np.pi) < 1e-12

    @pytest.mark.parametrize("shape", ["linear", "cosine"])
    def test_derivative_matches_central_difference(self, shape):
        s = model.RampSchedule(shape=shape, tau=2.5)
        h = 1e-6
        for t in np.linspace(0.1, 2.4, 17):
            num = (s.theta(t + h) - s.theta(t - h)) / (2 * h)
            ana = s.theta_dot(t)
            assert abs(num - ana) <= 1e-6 * max(abs(ana), 1.0)


class TestStabilizer:
    def test_coherent_eigenstates(self, params):
        h = model.h0(params)
        target = params.pump**2 / (2 * params.kerr)
        for sign in (1, -1):
            psi, _ = fock.coherent_state(sign * params.alpha0, params.dim)
            resid = h @ psi - target * psi
            assert np.linalg.norm(resid) <= 1e-6 * params.pump

    def test_eigenvalue_for_p_equals_2k(self, params):
        # P = 2K -> P^2/2K = P
        assert abs(params.pump**2 / (2 * params.kerr) - params.pump) < 1e-9

    def test_commutes_with_parity(self, params):
        h = model.h0(params)
        p = np.diag((-1.0) ** np.arange(params.dim))
        assert np.abs(h @ p - p @ h).max() <= 1e-10


class TestDrives:
    def test_hz_elements(self, params, frame):
        m = project2(model.hz(params), frame)
        assert abs(m[0, 0] - 1) < 0.02
        assert abs(m[1, 1] + 1) < 0.02
        assert abs(m[0, 1]) < 0.02

    def test_hy_elements(self, params, frame):
        m = project2(model.hy(params), frame)
        assert abs(m[0, 1] + 1j) < 0.02
        assert abs(m[0, 0]) < 0.02

    def test_hx_exact_realizes_sigma_x(self, params, frame):
        # The published identity Ibar Hx Ibar = e^4 Ibar - sigma_x cannot hold
        # in an orthonormalized frame (the off-diagonal of a^dag a doubles
        # through the basis overlap); the exact mode instead realizes
        # Ibar Hx Ibar = -(e^4/2) Ibar + sigma_x, which is what the quantized
        # protocols need. See notes in model.py.
        m = project2(model.hx(params), frame)
        assert abs(m[0, 1] - 1) < 0.02
        assert abs(m[1, 0] - 1) < 0.02
        assert abs(m[0, 0] + E4 / 2) < 0.02
        assert abs(m[1, 1] + E4 / 2) < 0.02

    def test_hx_paper_prefactor(self, params, frame):
        p = replace(params, hx_prefactor="paper")
        m = project2(model.hx(p), frame)
        assert abs(m[0, 1] + np.sqrt(2)) < 0.03

    def test_projected_drive_block_matches_two_level(self, frame):
        # (Dz/2)Hz + (Om/2)Hx at phi=0 projects to the two-level Hamiltonian
        # (1/2)[[Dz, Om],[Om, -Dz]] plus a multiple of the identity.
        params = linear_response_params()
        dz, om = 0.37 * params.delta_z, 0.81 * params.omega0
        block = dz / 2 * project2(model.hz(params), frame) + om / 2 * project2(
            model.hx(params), frame
        )
        shift = np.trace(block).real / 2
        target = np.array([[dz / 2, om / 2], [om / 2, -dz / 2]])
        tol = 0.02 * max(abs(dz), abs(om))
        assert np.abs(block - shift * np.eye(2) - target).max() <= tol


def projected(ds, op):
    """B^dag op B on the drive set's reduced basis."""
    return ds.basis.conj().T @ op @ ds.basis


class TestTotalHamiltonian:
    def test_hermitian_at_all_times(self):
        params = sta_params(chi=0.4)
        ds = model.drive_set(params)
        for t in np.linspace(0, params.tau, 7):
            h = ds.total_matrix(t, sta=True)
            assert np.abs(h - h.conj().T).max() <= 1e-10

    def test_t0_has_no_omega(self, params):
        ds = model.drive_set(params)
        h = ds.total_matrix(0.0)
        expected = projected(ds, model.h0(params)) + params.delta_z / 2 * projected(
            ds, model.hz(params)
        )
        assert np.abs(h - expected).max() <= 1e-9

    def test_midpoint_linear_ramp(self, params):
        ds = model.drive_set(params)
        h = ds.total_matrix(params.tau / 2)
        expected = projected(ds, model.h0(params)) + params.omega0 / 2 * projected(
            ds, model.hx(params)
        )
        assert np.abs(h - expected).max() <= 1e-9

    def test_outside_window(self, params):
        with pytest.raises(ValueError):
            model.drive_set(params).total_matrix(params.tau + 1.0)
        with pytest.raises(ValueError):
            model.drive_set(params).total_matrix(np.array([0.0, params.tau + 1.0]))

    @pytest.mark.parametrize("system", ["drive_set", "twolevel"])
    @pytest.mark.parametrize("schedule", model.SCHEDULE_SHAPES)
    @pytest.mark.parametrize("sta", [False, True])
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_array_of_times_is_the_stack(self, system, schedule, sta, phi):
        params = sta_params(chi=0.4, schedule=schedule, phi=phi)
        ds = model.drive_set(params) if system == "drive_set" else twolevel.system(params)
        t = (np.arange(24).reshape(4, 6) + 0.5) * (params.tau / 24)
        stack = ds.total_matrix(t, sta=sta)
        assert stack.shape == (4, 6, ds.basis_dim, ds.basis_dim)
        each = np.array([[ds.total_matrix(x, sta=sta) for x in row] for row in t])
        assert np.abs(stack - each).max() <= 1e-15 * np.abs(each).max()

    def test_cat_states_stationary_without_drives(self):
        params = sta_params(omega0=0.0, delta_z=0.0, delta_0=0.0)
        frame = logical.build_frame(params.alpha0, params.dim)
        for initial, ket in (("ket0", frame.ket0), ("ket1", frame.ket1)):
            traj = dynamics.run(params, initial, n_steps=100, n_samples=2)
            assert traj.basis_dim == 2  # no drive: the cat doublet alone
            assert abs(np.vdot(traj.final_state, ket)) ** 2 >= 1 - 1e-6


class TestReducedBasis:
    """drive_set keeps the H0 eigenvectors nearest the cat energy, as many as a
    first-order leakage bound of LEAKAGE_TOL needs."""

    def test_leakage_tol_is_a_hundredth_of_refine_tol(self):
        assert model.LEAKAGE_TOL == dynamics.REFINE_TOL / 100

    @pytest.mark.parametrize("make, m", [(sta_params, 8), (linear_response_params, 10)])
    def test_preset_basis_sizes(self, make, m):
        ds = model.drive_set(make(chi=0.5))
        assert ds.basis_dim == m
        assert ds.leakage_bound <= model.LEAKAGE_TOL
        # the next smaller basis would not meet the bound
        assert model.drive_set(make(chi=0.5), basis_dim=m - 2).leakage_bound > model.LEAKAGE_TOL

    def test_basis_is_orthonormal_and_spans_the_frame(self, params):
        ds = model.drive_set(params)
        b = ds.basis
        assert np.abs(b.conj().T @ b - np.eye(ds.basis_dim)).max() <= 1e-12
        frame = logical.build_frame(params.alpha0, params.dim)
        # a ket's part on the basis, lifted back, has the ket's whole weight
        for ket, on_basis in ((frame.ket0, ds.frame.ket0), (frame.ket1, ds.frame.ket1)):
            assert abs(abs(np.vdot(ds.lift(on_basis), ket)) ** 2 - 1) <= 1e-12

    def test_whole_space_bounds_nothing(self, params):
        ds = model.drive_set(params, basis_dim=params.dim)
        assert ds.leakage_bound == 0.0
        th = 0.3 * np.pi  # linear ramp at t = 0.3 tau
        expected = (
            model.h0(params)
            + params.delta_z_of(th) / 2 * model.hz(params)
            + params.omega_of(th) / 2 * model.hx(params)
        )
        lifted = ds.basis @ ds.total_matrix(0.3 * params.tau) @ ds.basis.conj().T
        assert np.abs(lifted - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_frame_is_the_reduced_kets(self):
        # B^dag |k><k'| B = (B^dag k)(B^dag k')^dag: the kets reduced as B^dag k
        # give the counterdiabatic sy_bar that projecting the full one gives
        params = sta_params(chi=0.3)
        ds = model.drive_set(params)
        full = logical.build_frame(params.alpha0, params.dim)
        k0, k1 = full.ket0, full.ket1
        sy_full = -1j * np.outer(k0, k1.conj()) + 1j * np.outer(k1, k0.conj())
        for ket, on_basis in ((k0, ds.frame.ket0), (k1, ds.frame.ket1)):
            assert np.abs(on_basis - ds.basis.conj().T @ ket).max() <= 1e-15
        assert np.abs(2 * ds.sy_half - projected(ds, sy_full)).max() <= 1e-14

    def test_cached_frame_is_read_only(self):
        # drive_set is cached: a write into its frame would reach every later run
        frame = model.drive_set(sta_params()).frame
        for ket in (frame.ket0, frame.ket1):
            with pytest.raises(ValueError, match="read-only"):
                ket[0] = 1.0
        assert model.drive_set(sta_params()).frame is frame

    def test_overflowing_drive_refused(self):
        with pytest.raises(ConfigError, match="largest drive at delta_0="):
            model.drive_set(sta_params(chi=1e308))

    @pytest.mark.parametrize("m", [1, 31, 8.0])
    def test_bad_basis_dim(self, params, m):
        with pytest.raises(ConfigError, match="basis_dim"):
            model.drive_set(params, basis_dim=m)


class TestCdCoefficient:
    def test_chi_zero(self):
        for th in np.linspace(0, np.pi, 9):
            assert abs(model.cd_coefficient(th, 1.3, 0.0) - 1.3) < 1e-12

    def test_theta_zero(self):
        for chi in (-0.7, 0.2, 3.0):
            assert abs(model.cd_coefficient(0.0, 1.0, chi) - 1 / (1 + chi)) < 1e-12

    def test_value_against_central_difference(self):
        chi, th, thd = 1.2, np.pi / 2, 1.0
        h = 1e-6

        def big_theta(x):
            return np.arctan2(np.sin(x), np.cos(x) + chi)

        num = (big_theta(th + h) - big_theta(th - h)) / (2 * h) * thd
        val = model.cd_coefficient(th, thd, chi)
        assert abs(val - num) < 1e-8
        assert abs(val - 1 / 2.44) < 1e-4

    def test_matches_derivative_along_schedule(self):
        chi = 0.6
        sched = model.RampSchedule(shape="cosine", tau=1.5)
        h = 1e-7
        for t in np.linspace(0.1, 1.4, 11):
            num = (
                np.arctan2(np.sin(sched.theta(t + h)), np.cos(sched.theta(t + h)) + chi)
                - np.arctan2(np.sin(sched.theta(t - h)), np.cos(sched.theta(t - h)) + chi)
            ) / (2 * h)
            ana = model.cd_coefficient(sched.theta(t), sched.theta_dot(t), chi)
            assert abs(num - ana) <= 1e-6 * max(abs(ana), 1e-6)

    def test_singular_point(self):
        with pytest.raises(SingularDriveError):
            model.cd_coefficient(np.pi, 1.0, 1.0)

    def test_array_with_one_singular_theta(self):
        th = np.array([0.1, 0.5, np.pi, 2.0])
        with pytest.raises(SingularDriveError, match=r"singular at chi=1\.0$"):
            model.cd_coefficient(th, np.ones_like(th), 1.0)
        # elementwise: each entry as the scalar call gives it
        values = model.cd_coefficient(th, np.full_like(th, 1.3), 0.4)
        each = [model.cd_coefficient(x, 1.3, 0.4) for x in th]
        np.testing.assert_allclose(values, each, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("chi", [1.0, -1.0, 1 + 5e-13, -1 - 5e-13])
    def test_degenerate_chi_raises_on_any_theta_grid(self, chi):
        # decided by chi alone, not by whether a theta lands near the degeneracy
        th = np.array([0.1, 0.5, 2.0])
        with pytest.raises(SingularDriveError, match="chi="):
            model.cd_coefficient(th, np.ones_like(th), chi)

    @pytest.mark.parametrize("chi", [1 + 1e-9, 1 - 1e-9, -1 + 1e-9])
    def test_closed_form_just_off_the_degeneracy(self, chi):
        # at theta = pi, Theta_dot = (1 - chi) / (sin^2 pi + (chi - 1)^2) ~ 1/(1 - chi);
        # 1 + 2 chi cos + chi^2 would cancel to rounding here
        th = np.pi if chi > 0 else 0.0
        cos = np.cos(th)
        exact = (1 + chi * cos) / ((cos + chi) ** 2)
        assert abs(model.cd_coefficient(th, 1.0, chi) / exact - 1) <= 1e-6

    @pytest.mark.parametrize("omega0, delta_z", [(1.0, 2.0), (0.7, -1.3), (-2.0, 0.5)])
    def test_matches_derivative_of_the_drive_angle(self, omega0, delta_z):
        # off delta_z = omega0: Theta = atan2(omega0 sin th, delta_z cos th + delta_0)
        chi, thd, h = 0.5, 1.7, 1e-6
        p = sta_params(omega0=omega0, delta_z=delta_z, delta_0=chi * delta_z)
        for th in np.linspace(0.2, 3.0, 8):
            num = np.diff(np.unwrap(np.arctan2(p.omega_of(th + np.array([-h, h])),
                                               p.delta_z_of(th + np.array([-h, h])))))[0]
            ana = model.cd_coefficient(th, thd, p.chi, p.rho)
            assert abs(num / (2 * h) * thd - ana) <= 1e-7 * max(abs(ana), 1.0)

    def test_matched_drives_are_bitwise_the_rho_free_form(self):
        th = np.linspace(0, np.pi, 101)
        for chi in (-1.7, -0.4, 0.3, 1.2):
            cos = np.cos(th)
            rho_free = 1.3 * (1 + chi * cos) / (np.sin(th) ** 2 + (cos + chi) ** 2)
            assert np.array_equal(model.cd_coefficient(th, np.full_like(th, 1.3), chi, 1.0), rho_free)

    def test_mixing_angle_is_the_drive_angle(self):
        p = sta_params(omega0=1.0, delta_z=2.0, delta_0=1.0)
        th = np.linspace(0, np.pi, 9)
        expected = np.arctan2(p.omega_of(th), p.delta_z_of(th))
        assert np.abs(model.mixing_angle(th, p.chi, p.rho) - expected).max() <= 1e-15

    def test_sta_without_delta_z_is_singular(self):
        p = sta_params(delta_z=0.0)
        with pytest.raises(SingularDriveError, match="delta_z=0"):
            model.drive_set(p).total_matrix(0.7, sta=True)

    def test_sta_chi_zero_cd_equals_ramp_rate(self):
        sched = model.RampSchedule(shape="cosine", tau=1.5)
        for t in np.linspace(0, 1.5, 7):
            thd = sched.theta_dot(t)
            assert abs(model.cd_coefficient(sched.theta(t), thd, 0.0) - thd) < 1e-12
