import numpy as np
import pytest

from conftest import constant_system, linear_response_params, sta_params
from knosim import cli, dynamics, logical, model, topology, twolevel
from knosim.errors import (ConfigError, DimensionMismatchError, NonFiniteStateError,
                           SingularDriveError)


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
        plus = frame.ket0 + frame.ket1
        traj = dynamics.run(p, initial=plus, sta=True, n_steps=800, n_samples=41)
        assert traj.initial == "custom"
        assert abs(traj.sx[0] - 1) < 1e-9
        assert abs(traj.norm[0] - 1) < 1e-12
        assert traj.final_state.shape == (p.dim,)

    def test_state_off_the_basis_rejected(self):
        # a 30-level Fock state is not on the 8-vector basis: no silent truncation
        p = sta_params()
        ket0 = logical.build_frame(p.alpha0, p.dim).ket0
        with pytest.raises(DimensionMismatchError, match=r"shape \(30,\), not \(8,\)"):
            dynamics.run(p, initial=ket0, sta=True, n_steps=400, n_samples=41)
        with pytest.raises(DimensionMismatchError, match=r"shape \(1, 8\)"):
            dynamics.run(p, initial=[np.ones(8)], sta=True, n_steps=400, n_samples=41)

    @pytest.mark.parametrize("amp", [0.0, np.inf, np.nan])
    def test_unnormalizable_state_rejected(self, amp, steps_computed):
        with pytest.raises(ConfigError, match="finite nonzero norm"):
            dynamics.run(sta_params(), initial=np.full(8, amp, dtype=complex), sta=True,
                         n_steps=400, n_samples=41)
        assert steps_computed == []

    def test_ket1_start(self):
        traj = dynamics.run(sta_params(), initial="ket1", sta=True, n_steps=800, n_samples=41)
        assert traj.sz[0] < -0.999
        assert traj.sz[-1] > 0.999

    def test_snapshots(self, sta_run):
        # the Wigner movie's snapshots are its sample rows' states, lifted off the basis
        p = sta_run.params
        cfg = cli.ExperimentConfig("wigner_movie", p, True, "ket0", 1000, len(sta_run.t))
        rows = cli._movie_rows(cfg)
        assert rows == [0, 25, 50, 75, 100]
        snaps = [sta_run.system.lift(sta_run.states[k]) for k in rows]
        for f, k, state in zip(cli.SNAPSHOT_FRACTIONS, rows, snaps):
            assert abs(sta_run.t[k] - f * p.tau) <= 1e-12
            np.testing.assert_array_equal(state, sta_run.system.basis @ sta_run.states[k])
        frame = logical.build_frame(p.alpha0, p.dim)
        assert abs(np.vdot(snaps[0], frame.ket0)) ** 2 >= 1 - 1e-9
        assert abs(np.vdot(snaps[-1], frame.ket1)) ** 2 >= 0.98

    @pytest.mark.parametrize("n_samples", [41, 401])
    def test_cli_snapshot_fractions_on_grid(self, n_samples):
        p = sta_params(chi=0.5)
        system = twolevel.system(p)
        cfg = cli.ExperimentConfig("wigner_movie", p, True, "ket0", 800, n_samples)
        traj = dynamics.evolve(system, sta=True, n_steps=800, n_samples=n_samples)
        rows = cli._movie_rows(cfg)
        assert len(rows) == len(cli.SNAPSHOT_FRACTIONS)
        for f, k in zip(cli.SNAPSHOT_FRACTIONS, rows):
            assert abs(traj.t[k] - f * p.tau) <= 1e-12
            state = system.lift(traj.states[k])
            c0, c1 = (np.vdot(ket, state) for ket in (system.frame.ket0, system.frame.ket1))
            sz = abs(c0) ** 2 - abs(c1) ** 2  # <psi|(|0><0| - |1><1|)|psi>
            assert abs(sz - traj.sz[k]) < 1e-12

    def test_refinement_reported(self, sta_run):
        assert sta_run.refine_history[-1][1] <= dynamics.REFINE_TOL
        assert sta_run.n_steps >= 2000  # at least one doubling always runs

    def test_nonconvergence_flagged(self):
        traj = dynamics.run(
            sta_params(), sta=True, n_steps=100, n_samples=21, refine_tol=1e-14,
        )
        assert not traj.converged
        assert traj.refine_history[-1][1] > 1e-14

    def test_non_finite_pass_raises(self, steps_computed):
        # a NaN in H(t) makes the first pass's states NaN, and no further
        # pass runs on them
        with pytest.raises(NonFiniteStateError, match=r"non-finite state at t = .* \(400 steps\)"):
            dynamics.evolve(constant_system(np.diag([np.nan, 1.0])))
        assert steps_computed == [400]

    def test_overflowing_cd_term_refused(self, steps_computed):
        # chi = 1e308 overflows the counterdiabatic coefficient where the
        # first chunk samples it: a ConfigError, not a numpy warning
        with pytest.raises(ConfigError, match="counterdiabatic coefficient at chi=1e"):
            dynamics.evolve(twolevel.system(sta_params(chi=1e308)), sta=True)
        assert steps_computed == [400]

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
    psi = psi0.copy()
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
        got = dynamics._propagate(ds, ds.frame.ket0, True, n_steps, n_samples)
        want = _reference_pass(ds, ds.frame.ket0, True, n_steps, n_samples)
        assert got["n_steps"] == n_steps
        assert got["psi"].shape == want.shape
        assert np.abs(got["psi"] - want).max() <= 1e-12


class TestTrajectoryIsItsStates:
    """A Trajectory stores the states of its pass; every observable and the
    final state are read off them."""

    def test_observables_are_read_off_the_states(self, sta_run):
        traj = sta_run
        sx, sy, sz, pop = logical.bloch(traj.system.frame, traj.states)
        for got, want in ((traj.sx, sx), (traj.sy, sy), (traj.sz, sz), (traj.pop, pop),
                          (traj.norm, np.linalg.norm(traj.states, axis=1))):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(traj.bloch(), np.stack([sx, sy, sz], axis=1))
        assert traj.states.shape == (101, traj.system.basis_dim)
        assert traj.params is traj.system.params
        assert (traj.basis_dim, traj.leakage_bound) == (8, traj.system.leakage_bound)
        lifted = traj.system.basis @ traj.states[-1]
        np.testing.assert_array_equal(traj.final_state, lifted)
        spc = traj.n_steps // 100
        np.testing.assert_array_equal(traj.t, np.arange(101) * spc * (traj.params.tau / traj.n_steps))

    def test_refine_diff_is_the_last_bloch_change(self, monkeypatch):
        passes = []
        propagate = dynamics._propagate

        def recording(*args):
            r = propagate(*args)
            passes.append(r["psi"])
            return r

        monkeypatch.setattr(dynamics, "_propagate", recording)
        traj = dynamics.evolve(
            twolevel.system(sta_params(chi=0.5)), sta=True, n_steps=400, n_samples=41,
            refine_tol=1e-14,
        )
        assert len(passes) == 3 and traj.states is passes[-1]
        frame = traj.system.frame
        blochs = [np.stack(logical.bloch(frame, psi)[:3], axis=1) for psi in passes]
        diffs = [float(np.abs(fine - coarse).max()) for coarse, fine in zip(blochs, blochs[1:])]
        assert traj.refine_history == [(800, diffs[0]), (1600, diffs[1])]
        assert traj.refine_history[-1][1] == diffs[-1]


def _exact_step(chi):
    """C1q from the exact counterdiabatic endpoints Theta = atan2(sin th, cos th + chi)."""
    return 0.5 * (np.cos(np.arctan2(0.0, 1 + chi)) - np.cos(np.arctan2(0.0, chi - 1)))


class TestStepCount:
    """The step count comes from refine_tol, within a cap on the steps computed."""

    @pytest.mark.parametrize("chi", [0.3, -0.6, 1.35])
    def test_fig24_default_converges_at_800(self, chi, steps_computed):
        traj = dynamics.run(sta_params(chi=chi), sta=True)
        assert traj.converged
        assert steps_computed == [400, 800]
        assert traj.n_steps == 800
        assert [n for n, _ in traj.refine_history] == [800]
        assert traj.refine_history[-1][1] <= dynamics.REFINE_TOL
        c1 = topology.chern(traj).c1
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


class TestReducedBasisEquivalence:
    """run steps in the reduced H0 eigenbasis; evolve on the same model with
    basis_dim = dim is the whole space."""

    def _compare(self, params, sta, **kw):
        reduced = dynamics.run(params, "ket0", sta, **kw)
        whole = model.drive_set(params, basis_dim=params.dim)
        full = dynamics.evolve(whole, "ket0", sta, **kw)
        assert reduced.n_steps == full.n_steps
        ds = max(np.abs(getattr(reduced, k) - getattr(full, k)).max() for k in ("sx", "sy", "sz"))
        assert ds <= 1e-8
        assert abs(topology.chern(reduced).c1 - topology.chern(full).c1) <= 1e-8
        for k in range(0, len(reduced.t), 100):  # the Wigner movie's rows at 401 samples
            state = reduced.system.lift(reduced.states[k])
            assert state.shape == (params.dim,)
            assert abs(np.vdot(state, full.system.lift(full.states[k]))) ** 2 >= 1 - 1e-8
        assert reduced.final_state.shape == (params.dim,)
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

    def test_follows_eigenstate_off_the_matched_drives(self):
        # delta_z = 2 omega0: the counterdiabatic term is the exact Theta_dot of
        # Theta = atan2(omega0 sin th, delta_z cos th + delta_0), not its
        # delta_z = omega0 form (which let the fidelity fall to 0.9705 here).
        # 1600 -> 3200 steps, since the 2x2's midpoint error is 3e-12 at 400 -> 800.
        omega0 = sta_params().omega0
        p = sta_params(delta_z=2 * omega0, delta_0=0.5 * 2 * omega0)
        assert p.chi == 0.5 and p.rho == 0.5
        osc = dynamics.run(p, sta=True, n_steps=1600)
        assert dynamics.instantaneous_eigenstate_fidelity(osc).min_fidelity >= 1 - 1e-8
        two = twolevel.reference_dynamics(p, sta=True, n_steps=1600)
        assert dynamics.instantaneous_eigenstate_fidelity(two).min_fidelity >= 1 - 1e-12

    def test_no_eigenstate_without_delta_z(self):
        traj = dynamics.run(sta_params(delta_z=0.0), sta=False, n_steps=500, n_samples=21)
        with pytest.raises(SingularDriveError, match="delta_z=0"):
            dynamics.instantaneous_eigenstate_fidelity(traj)

    @pytest.mark.parametrize("phi", [np.pi / 2, np.pi])
    @pytest.mark.parametrize("propagate", [dynamics.run, twolevel.reference_dynamics])
    def test_follows_eigenstate_at_any_azimuth(self, propagate, phi):
        # the counterdiabatic term turns with the drive's azimuth, and the
        # eigenstate axis with it
        traj = propagate(sta_params(chi=0.3, phi=phi), sta=True)
        assert dynamics.instantaneous_eigenstate_fidelity(traj).min_fidelity >= 1 - 1e-8

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
