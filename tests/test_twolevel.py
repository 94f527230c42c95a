import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KERR, PUMP, linear_response_params, sta_params
from knosim import dynamics, model, topology, twolevel
from knosim.errors import ConfigError, SingularDriveError
from knosim.model import ModelParams, mixing_angle


def midpoint_params(dz: float, om: float, phi: float = 0.0) -> ModelParams:
    """A linear ramp whose midpoint, theta = pi/2, has Dz = dz and Om = om
    (Dz up to cos(pi/2) ~ 6e-17)."""
    return ModelParams(kerr=KERR, pump=PUMP, omega0=om, delta_z=1.0, delta_0=dz, phi=phi)


def midpoint_h(p: ModelParams) -> np.ndarray:
    return twolevel.system(p).total_matrix(p.tau / 2)


# |chi| away from the transition at 1, where the counterdiabatic term is singular
CHIS = st.one_of(st.floats(-0.9, 0.9), st.floats(1.1, 2.0), st.floats(-2.0, -1.1))
# chi = +-(1 + d) with 1e-6 <= |d| <= 0.1: the monopole flux right up to the transition
NEAR_TRANSITION = st.builds(
    lambda sign, d: sign * (1 + d),
    st.sampled_from((-1.0, 1.0)),
    st.floats(-0.1, 0.1).filter(lambda d: abs(d) >= 1e-6),
)


class TestEigensystem:
    """Closed forms of the 2x2 H(Dz, Om, phi): energies +-sqrt(Dz^2 + Om^2)/2,
    upper eigenvector (cos(T/2), e^{i phi} sin(T/2)) with T = atan2(Om, Dz)."""

    def test_energies(self):
        assert np.allclose(np.linalg.eigvalsh(midpoint_h(midpoint_params(3.0, 4.0))), [-2.5, 2.5])

    def test_mixing_angle_endpoints(self):
        # T = atan2(Om, Dz) at theta = 0, pi, pi/2 of the chi = 0 ramp
        assert abs(mixing_angle(0.0, 0.0)) < 1e-12
        assert abs(mixing_angle(np.pi, 0.0) - np.pi) < 1e-12
        assert abs(mixing_angle(np.pi / 2, 0.0) - np.pi / 2) < 1e-12

    def test_degenerate(self):
        assert np.allclose(np.linalg.eigvalsh(midpoint_h(midpoint_params(0.0, 0.0))), [0, 0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(0.01, 5, allow_nan=False),
        st.floats(-np.pi, np.pi, allow_nan=False),
    )
    def test_eigenvectors_solve_the_hamiltonian(self, dz, om, phi):
        p = midpoint_params(dz, om, phi)
        h = midpoint_h(p)
        dz, om = p.delta_z_of(np.pi / 2), p.omega_of(np.pi / 2)
        r = np.hypot(dz, om)
        assert np.abs(np.linalg.eigvalsh(h) - [-r / 2, r / 2]).max() <= 1e-12 * r
        half = np.arctan2(om, dz) / 2
        v_plus = np.array([np.cos(half), np.exp(1j * phi) * np.sin(half)])
        assert np.abs(h @ v_plus - r / 2 * v_plus).max() <= 1e-10 * max(abs(dz), om)

    def test_hermitian_with_phase(self):
        h = midpoint_h(midpoint_params(0.3, 1.1, 0.7))
        assert np.abs(h - h.conj().T).max() <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.01, 5).flatmap(lambda a: st.sampled_from([a, -a])),
        CHIS,
        st.floats(-5, 5),
        st.floats(-np.pi, np.pi),
        st.floats(0, 1),
        st.sampled_from(["linear", "cosine"]),
        st.booleans(),
    )
    def test_total_matrix_is_the_closed_form(self, dz0, chi, om0, phi, frac, shape, sta):
        # system(p).total_matrix(t) = (1/2)[[Dz, Om e^{-i phi}], [Om e^{i phi}, -Dz]]
        # at theta(t), plus (Theta_dot/2)(-sin phi sigma_x + cos phi sigma_y) with sta,
        # Theta_dot the exact rate of the drive angle at any omega0 / delta_z
        p = ModelParams(kerr=KERR, pump=PUMP, omega0=om0, delta_z=dz0, delta_0=chi * dz0,
                        tau=1.3, schedule=shape, phi=phi)
        t = frac * p.tau
        th = float(p.theta(t))
        dz, om = p.delta_z_of(th), p.omega_of(th)
        off = om / 2 * np.exp(-1j * phi)
        expected = np.array([[dz / 2, off], [np.conj(off), -dz / 2]])
        if sta:
            cd = model.cd_coefficient(th, float(p.theta_dot(t)), p.chi, p.rho)
            cd_off = -1j * np.exp(-1j * phi) * cd / 2
            expected = expected + np.array([[0, cd_off], [np.conj(cd_off), 0]])
        h = twolevel.system(p).total_matrix(t, sta)
        assert np.abs(h - expected).max() <= 1e-15 * max(1.0, np.abs(expected).max())


class TestReferenceDynamics:
    def test_adiabatic_transfer(self):
        # slow ramp at chi = 0: ket0 follows the upper eigenstate to ket1
        traj = twolevel.reference_dynamics(
            linear_response_params(), n_steps=4000, n_samples=101
        )
        assert traj.converged
        assert traj.sz[0] > 0.999
        assert traj.sz[-1] < -0.999
        assert np.abs(traj.norm - 1).max() <= 1e-9
        assert np.abs(traj.pop - 1).max() <= 1e-12

    def test_sta_exact_transfer(self):
        # fast ramp with the counterdiabatic term: transfer is exact even
        # though the bare ramp would be strongly diabatic
        p = sta_params()
        bare = twolevel.reference_dynamics(p, sta=False, n_steps=1000, n_samples=51)
        cd = twolevel.reference_dynamics(p, sta=True, n_steps=1000, n_samples=51)
        assert cd.sz[-1] < -1 + 1e-6
        assert bare.sz[-1] > cd.sz[-1] + 0.5  # bare ramp fails to follow

    def test_sta_tracks_mixing_angle(self):
        p = sta_params(chi=0.5)
        traj = twolevel.reference_dynamics(p, sta=True, n_steps=1000, n_samples=51)
        for th, sz in zip(traj.theta, traj.sz):
            assert abs(sz - np.cos(mixing_angle(th, 0.5))) <= 1e-6

    def test_ket1_is_mirror(self):
        p = sta_params()
        t0 = twolevel.reference_dynamics(p, initial="ket0", sta=True, n_steps=800, n_samples=41)
        t1 = twolevel.reference_dynamics(p, initial="ket1", sta=True, n_steps=800, n_samples=41)
        assert np.abs(t0.sz + t1.sz).max() <= 1e-6

    def test_requested_step_count_is_kept(self):
        traj = twolevel.reference_dynamics(sta_params(), sta=True, n_steps=4000)
        assert traj.t.size == 401
        assert traj.n_steps == 8000

    @pytest.mark.parametrize("n_steps, n_samples", [(200, 1), (200, 500)])
    def test_sample_count_checked(self, n_steps, n_samples):
        with pytest.raises(ConfigError, match="n_samples"):
            twolevel.reference_dynamics(sta_params(), n_steps=n_steps, n_samples=n_samples)


def sta_c1(chi: float, initial: str) -> tuple[float, dynamics.Trajectory]:
    """C1q of the 2x2 counterdiabatic run from the default start."""
    traj = dynamics.evolve(twolevel.system(sta_params(chi=chi)), initial, sta=True)
    return topology.chern(traj).c1, traj


class TestProperties:
    """Physics identities of the 2x2 counterdiabatic run through dynamics.evolve."""

    @settings(max_examples=15, deadline=None)
    @given(CHIS)
    def test_norm_and_ket1_mirror(self, chi):
        c0, t0 = sta_c1(chi, "ket0")
        c1, t1 = sta_c1(chi, "ket1")
        for traj in (t0, t1):
            assert traj.converged
            assert np.abs(traj.norm - 1).max() <= 1e-9
        assert abs(c1 + c0) <= 1e-9

    @settings(max_examples=15, deadline=None)
    @given(CHIS)
    def test_chi_mirror(self, chi):
        assert abs(sta_c1(chi, "ket0")[0] - sta_c1(-chi, "ket0")[0]) <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(CHIS)
    def test_monopole_flux_quantized(self, chi):
        assert abs(twolevel.monopole_chern(chi) - (1.0 if abs(chi) < 1 else 0.0)) <= 1e-4

    @settings(max_examples=200, deadline=None)
    @given(NEAR_TRANSITION)
    def test_monopole_flux_exact_near_the_transition(self, chi):
        assert abs(twolevel.monopole_chern(chi) - (1.0 if abs(chi) < 1 else 0.0)) <= 1e-9


class TestMonopoleChern:
    def test_analytic_unit_sphere(self):
        # chi = 0 is the unit sphere centred on the degeneracy: flux is exactly 1
        assert abs(twolevel.monopole_chern(0.0) - 1) < 1e-5

    @pytest.mark.parametrize("chi", [0.5, -0.5])
    def test_enclosed(self, chi):
        assert abs(twolevel.monopole_chern(chi) - 1) < 1e-5

    @pytest.mark.parametrize("chi", [1.5, -1.5, 4.0])
    def test_not_enclosed(self, chi):
        assert abs(twolevel.monopole_chern(chi)) < 1e-5

    @pytest.mark.parametrize("chi, flux", [(0.999, 1.0), (-0.999, 1.0), (1.001, 0.0), (-1.001, 0.0)])
    def test_exact_a_thousandth_from_the_transition(self, chi, flux):
        assert abs(twolevel.monopole_chern(chi) - flux) <= 1e-9

    def test_on_manifold(self):
        with pytest.raises(SingularDriveError):
            twolevel.monopole_chern(1.0)
        with pytest.raises(SingularDriveError):
            twolevel.monopole_chern(-1.0)

    def test_oracle_solid_angle(self):
        # independent oracle: for the shifted sphere the flux equals the
        # winding of the map, computable from the solid angle of the circle
        # of tangency -- for |chi| < 1 the degeneracy is inside (flux 1),
        # outside otherwise (flux 0); check quantization holds even close to
        # the transition, where the integrand peaks sharply near the
        # almost-degenerate pole
        assert twolevel.monopole_chern(0.95) > 0.999
        assert twolevel.monopole_chern(1.05) < 0.001
