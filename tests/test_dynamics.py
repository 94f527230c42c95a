import numpy as np
import pytest

from conftest import linear_response_params, sta_params
from knosim import cli, dynamics, logical, model, topology, twolevel
from knosim.errors import ConfigError, DimensionMismatchError
from knosim.fock import StateVector


@pytest.fixture(scope="module")
def sta_run():
    return dynamics.run(sta_params(), sta=True, n_steps=1000, n_samples=101)


class TestRun:
    def test_endpoints_and_hygiene(self, sta_run):
        traj = sta_run
        assert traj.converged
        assert traj.sz[0] > 0.999
        assert traj.sz[-1] < -0.999
        assert np.abs(traj.norm - 1).max() <= 1e-9
        assert traj.pop.min() >= 0.95
        assert abs(traj.theta[0]) < 1e-12
        assert abs(traj.theta[-1] - np.pi) < 1e-12
        assert abs(traj.t[-1] - traj.params.tau) < 1e-12

    def test_matches_two_level_reference(self):
        # independent oracle: the projected oscillator dynamics should track
        # the analytic 2x2 reduction up to the residual basis overlap
        p = sta_params(chi=0.5)
        full = dynamics.run(p, sta=True, n_steps=800, n_samples=41)
        ref = twolevel.reference_dynamics(p, sta=True, n_steps=800, n_samples=41)
        for k in ("sx", "sy", "sz"):
            assert np.abs(getattr(full, k) - getattr(ref, k)).max() <= 0.02

    def test_bare_ramp_is_diabatic(self):
        traj = dynamics.run(sta_params(), sta=False, n_steps=1000, n_samples=51)
        assert traj.sz[-1] > -0.5  # fast bare ramp cannot follow

    def test_custom_initial_state(self):
        # a custom state is given on the drive set's basis, and normalized
        p = sta_params()
        frame = model.drive_set(p).frame
        plus = StateVector(frame.ket0.amplitudes + frame.ket1.amplitudes)
        traj = dynamics.run(p, initial=plus, sta=True, n_steps=800, n_samples=41)
        assert traj.initial == "custom"
        assert abs(traj.sx[0] - 1) < 1e-9
        assert abs(traj.norm[0] - 1) < 1e-12
        assert traj.final_state.dim == p.dim

    def test_state_off_the_basis_rejected(self):
        # a 30-level Fock state is not on the 8-vector basis: no silent truncation
        p = sta_params()
        ket0 = logical.build_frame(p.alpha0, p.dim).ket0
        with pytest.raises(DimensionMismatchError, match="30 amplitudes"):
            dynamics.run(p, initial=ket0, sta=True, n_steps=400, n_samples=41)

    def test_ket1_start(self):
        traj = dynamics.run(sta_params(), initial="ket1", sta=True, n_steps=800, n_samples=41)
        assert traj.sz[0] < -0.999
        assert traj.sz[-1] > 0.999

    def test_snapshots(self, sta_run):
        p = sta_params()
        traj = dynamics.run(
            p, sta=True, n_steps=500, n_samples=51,
            snapshot_times=(0.0, p.tau / 2, p.tau),
        )
        assert set(traj.snapshots) == {0.0, p.tau / 2, p.tau}
        frame = logical.build_frame(p.alpha0, p.dim)
        assert traj.snapshots[0.0].fidelity(frame.ket0) >= 1 - 1e-9
        assert traj.snapshots[p.tau].fidelity(frame.ket1) >= 0.98

    @pytest.mark.parametrize("times, n_samples", [((0.0, 1e-6, 1.5), 51), ((0.33,), 11)])
    def test_off_grid_snapshot_rejected(self, times, n_samples):
        # neither 1e-6 nor 0.33 is a multiple of tau / (n_samples - 1)
        with pytest.raises(ConfigError, match="sample grid"):
            dynamics.run(
                sta_params(), sta=True, n_steps=500, n_samples=n_samples, snapshot_times=times
            )

    @pytest.mark.parametrize("ts", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_snapshot_rejected(self, ts):
        with pytest.raises(ConfigError, match="finite"):
            dynamics.evolve(
                twolevel.system(sta_params()), n_steps=400, n_samples=41,
                snapshot_times=(ts,),
            )

    @pytest.mark.parametrize("n_samples", [41, 401])
    def test_cli_snapshot_fractions_on_grid(self, n_samples):
        p = sta_params(chi=0.5)
        system = twolevel.system(p)
        times = [f * p.tau for f in cli.SNAPSHOT_FRACTIONS]
        traj = dynamics.evolve(
            system, sta=True, n_steps=800, n_samples=n_samples, snapshot_times=times,
        )
        assert list(traj.snapshots) == times
        for ts, state in traj.snapshots.items():
            k = int(np.argmin(np.abs(traj.t - ts)))
            c0, c1 = (ket.overlap(state) for ket in (system.frame.ket0, system.frame.ket1))
            sz = abs(c0) ** 2 - abs(c1) ** 2  # <psi|(|0><0| - |1><1|)|psi>
            assert abs(sz - traj.sz[k]) < 1e-12

    def test_refinement_reported(self, sta_run):
        assert sta_run.refine_diff <= dynamics.REFINE_TOL
        assert sta_run.n_steps >= 2000  # at least one doubling always runs

    def test_nonconvergence_flagged(self):
        traj = dynamics.run(
            sta_params(), sta=True, n_steps=100, n_samples=21, refine_tol=1e-14,
        )
        assert not traj.converged
        assert traj.refine_diff > 1e-14

    def test_bad_initial(self):
        with pytest.raises(ConfigError):
            dynamics.run(sta_params(), initial="ket2", n_steps=200, n_samples=21)

    def test_bad_steps(self):
        with pytest.raises(ConfigError):
            dynamics.run(sta_params(), n_steps=10)
        with pytest.raises(ConfigError):
            dynamics.run(sta_params(), n_steps=200, n_samples=1)

    def test_default_start_is_the_sample_grid(self):
        # the coarsest grid evolve accepts, rounded up to whole sample intervals
        assert dynamics.start_steps(None, 401) == 400
        assert dynamics.start_steps(None, 41) == 120
        assert dynamics.start_steps(4000, 401) == 4000
        assert dynamics.start_steps(4000, 400) == 4389
        assert dynamics.expected_steps(None, 401) == 1200

    def test_one_step_per_sample_interval_accepted(self):
        assert dynamics.start_steps(400, 401) == 400
        with pytest.raises(ConfigError, match="n_samples"):
            dynamics.start_steps(400, 402)
        traj = dynamics.evolve(twolevel.system(sta_params()), sta=True, n_steps=100, n_samples=101)
        assert traj.refine_history[0][0] == 200 and traj.t.size == 101


def _reference_pass(system, psi0, sta, n_steps, n_samples):
    """The per-step loop: psi <- V e^{-i w dt} V^dag psi at each midpoint H(t),
    the state kept at every sample."""
    spc = n_steps // (n_samples - 1)
    dt = system.params.tau / n_steps
    psi = psi0.amplitudes.copy()
    states = [psi]
    for i in range(n_steps):
        w, v = np.linalg.eigh(system.total_matrix((i + 0.5) * dt, sta=sta))
        psi = v @ (np.exp(-1j * w * dt) * (v.conj().T @ psi))
        if (i + 1) % spc == 0:
            states.append(psi)
    return np.array(states)


class TestBatchedPass:
    """_propagate diagonalizes chunks of steps as one stack; it must give what
    the step-by-step loop gives."""

    @pytest.mark.parametrize("system, n_steps, n_samples", [
        ("twolevel", 300, 301),  # one step per interval, 300 = 256 + 44
        ("twolevel", 903, 302),  # 3 per interval, chunks of 85 intervals
        ("twolevel", 600, 3),  # 300 per interval, more than CHUNK_STEPS
        ("drive_set", 1500, 301),  # 5 per interval on the 8-level basis
        ("drive_set", 1200, 2),  # one interval of 1200 steps
    ])
    def test_matches_the_step_loop(self, system, n_steps, n_samples):
        p = sta_params(chi=0.6, phi=0.4)
        ds = model.drive_set(p) if system == "drive_set" else twolevel.system(p)
        psi0 = ds.frame.ket0
        spc = n_steps // (n_samples - 1)
        times = [p.tau / (n_samples - 1) * k for k in (0, n_samples // 2, n_samples - 1)]
        got = dynamics._propagate(ds, psi0, True, n_steps, n_samples, times)
        want = _reference_pass(ds, psi0, True, n_steps, n_samples)
        k0, k1 = ds.frame.ket0.amplitudes, ds.frame.ket1.amplitudes
        d00, d01, d10, d11 = (np.outer(a, b.conj()) for a in (k0, k1) for b in (k0, k1))
        for key, op in (("sx", d01 + d10), ("sy", -1j * d01 + 1j * d10), ("sz", d00 - d11),
                        ("pop", d00 + d11)):
            ref = np.einsum("ki,ij,kj->k", want.conj(), op, want).real
            assert np.abs(got[key] - ref).max() <= 1e-12, key
        assert np.abs(got["norm"] - np.linalg.norm(want, axis=1)).max() <= 1e-12
        np.testing.assert_array_equal(got["t"], np.arange(n_samples) * spc * (p.tau / n_steps))
        assert np.abs(got["final_state"].amplitudes - want[-1]).max() <= 1e-12
        for ts, k in zip(times, (0, n_samples // 2, n_samples - 1)):
            assert np.abs(got["snapshots"][ts].amplitudes - want[k]).max() <= 1e-12


def _exact_step(chi):
    """C1q from the exact counterdiabatic endpoints Theta = atan2(sin th, cos th + chi)."""
    return 0.5 * (np.cos(np.arctan2(0.0, 1 + chi)) - np.cos(np.arctan2(0.0, chi - 1)))


class TestStepCount:
    """The step count comes from refine_tol, within a cap on the steps computed."""

    @pytest.fixture
    def steps_computed(self, monkeypatch):
        passes = []
        propagate = dynamics._propagate

        def counting(system, psi0, sta, n_steps, *args):
            passes.append(n_steps)
            return propagate(system, psi0, sta, n_steps, *args)

        monkeypatch.setattr(dynamics, "_propagate", counting)
        return passes

    @pytest.mark.parametrize("chi", [0.3, -0.6, 1.35])
    def test_fig24_default_converges_at_800(self, chi, steps_computed):
        traj = dynamics.run(sta_params(chi=chi), sta=True)
        assert traj.converged
        assert steps_computed == [400, 800]
        assert traj.n_steps == 800
        assert [n for n, _ in traj.refine_history] == [800]
        assert traj.refine_diff <= dynamics.REFINE_TOL
        c1 = topology.chern_sta(topology.theta_q_series(traj), traj).c1
        assert abs(c1 - _exact_step(chi)) <= 1e-6

    def test_fig1_default_converges(self, steps_computed):
        traj = dynamics.run(linear_response_params())
        assert traj.converged
        assert steps_computed == [400, 800, 1600, 3200, 6400]
        assert traj.refine_history[-1][1] <= dynamics.REFINE_TOL < traj.refine_history[-2][1]

    def test_explicit_steps_cost_at_most_seven_times(self, steps_computed):
        traj = dynamics.evolve(
            twolevel.system(sta_params(chi=0.5)), sta=True, n_steps=400, n_samples=41,
            refine_tol=1e-14,
        )
        assert not traj.converged
        assert steps_computed == [400, 800, 1600]
        assert sum(steps_computed) == 7 * 400
        assert [n for n, _ in traj.refine_history] == [800, 1600]

    def test_default_start_capped_at_4000_step_budget(self, steps_computed):
        traj = dynamics.evolve(
            twolevel.system(sta_params(chi=0.5)), sta=True, refine_tol=1e-14
        )
        assert not traj.converged
        assert steps_computed == [400, 800, 1600, 3200, 6400, 12800]
        assert sum(steps_computed) <= dynamics.STEP_BUDGET * dynamics.BUDGET_STEPS
        assert len(traj.refine_history) == 5


def _c1(traj):
    if traj.sta:
        return topology.chern_sta(topology.theta_q_series(traj), traj).c1
    return topology.chern_linear_response(topology.berry_curvature(traj), traj).c1


class TestReducedBasisEquivalence:
    """run steps in the reduced H0 eigenbasis; evolve on the same model with
    basis_dim = dim is the whole space."""

    def _compare(self, params, sta, **kw):
        times = [f * params.tau for f in cli.SNAPSHOT_FRACTIONS]
        reduced = dynamics.run(params, "ket0", sta, snapshot_times=times, **kw)
        whole = model.drive_set(params, basis_dim=params.dim)
        full = dynamics.evolve(whole, "ket0", sta, snapshot_times=times, **kw)
        assert reduced.n_steps == full.n_steps
        ds = max(np.abs(getattr(reduced, k) - getattr(full, k)).max() for k in ("sx", "sy", "sz"))
        assert ds <= 1e-8
        assert abs(_c1(reduced) - _c1(full)) <= 1e-8
        for ts in times:
            state = reduced.snapshots[ts]
            assert state.dim == params.dim
            assert state.fidelity(full.snapshots[ts]) >= 1 - 1e-8
        assert reduced.final_state.dim == params.dim
        return reduced

    @pytest.mark.parametrize("chi", [0.353, -0.538, 1.347, -1.888])
    def test_fig24(self, chi):
        traj = self._compare(sta_params(chi=chi), sta=True)
        assert traj.basis_dim == 8 and traj.leakage_bound <= model.LEAKAGE_TOL

    def test_fig1(self):
        traj = self._compare(linear_response_params(), sta=False, n_steps=2000)
        assert traj.basis_dim == 10 and traj.leakage_bound <= model.LEAKAGE_TOL


class TestEigenstateFidelity:
    def test_sta_stays_in_eigenstate(self, sta_run):
        res = dynamics.instantaneous_eigenstate_fidelity(sta_run)
        assert res.branch == "upper"
        assert res.min_fidelity >= 0.999

    def test_bare_ramp_loses_fidelity(self):
        traj = dynamics.run(sta_params(), sta=False, n_steps=1000, n_samples=51)
        res = dynamics.instantaneous_eigenstate_fidelity(traj)
        assert res.min_fidelity < 0.9

    def test_requires_matched_drives(self):
        p = sta_params(delta_z=2 * sta_params().omega0)
        traj = dynamics.run(p, sta=False, n_steps=500, n_samples=21)
        with pytest.raises(ConfigError):
            dynamics.instantaneous_eigenstate_fidelity(traj)

    def test_lower_branch(self):
        traj = dynamics.run(sta_params(), initial="ket1", sta=True, n_steps=800, n_samples=41)
        res = dynamics.instantaneous_eigenstate_fidelity(traj)
        assert res.branch == "lower"
        assert res.min_fidelity >= 0.999


class TestDriveSetCache:
    def test_cache_hit(self):
        p = sta_params()
        assert model.drive_set(p) is model.drive_set(p)

    def test_distinct_params(self):
        assert model.drive_set(sta_params()) is not model.drive_set(sta_params(chi=0.1))
