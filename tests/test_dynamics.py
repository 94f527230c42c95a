import numpy as np
import pytest

from conftest import constant_system, linear_response_params, sta_params
from knosim import cli, dynamics, logical, model, topology, twolevel
from knosim.errors import ConfigError, NonFiniteStateError, SingularDriveError


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
        with pytest.raises(NonFiniteStateError, match=r"non-finite state at t = .* \(200 steps\)"):
            dynamics.evolve(constant_system(np.diag([np.nan, 1.0])))
        assert steps_computed == [200]

    def test_overflowing_cd_term_refused(self, steps_computed):
        # chi = 1e308 overflows the counterdiabatic coefficient where the
        # first chunk samples it: a ConfigError, not a numpy warning
        with pytest.raises(ConfigError, match="counterdiabatic coefficient at chi=1e"):
            dynamics.evolve(twolevel.system(sta_params(chi=1e308)), sta=True)
        assert steps_computed == [200]

    def test_bad_initial(self):
        with pytest.raises(ConfigError):
            dynamics.run(sta_params(), initial="ket2", n_steps=200, n_samples=21)

    def test_array_initial_rejected(self, steps_computed):
        # a run starts from a frame ket: an array, even the frame's own ket0, is refused
        system = model.drive_set(sta_params())
        with pytest.raises(ConfigError, match="initial must be 'ket0' or 'ket1'"):
            dynamics.evolve(system, initial=system.frame.ket0, sta=True, n_steps=400, n_samples=41)
        assert steps_computed == []

    def test_bad_steps(self):
        with pytest.raises(ConfigError):
            dynamics.run(sta_params(), n_steps=10)
        with pytest.raises(ConfigError):
            dynamics.run(sta_params(), n_steps=200, n_samples=1)

    def test_default_start_is_the_sample_grid(self):
        # the coarsest grid evolve accepts, rounded up to whole intervals of its
        # pass: every other sample when the sample intervals are even
        assert dynamics.passes(None, 401)[0] == 200
        assert dynamics.passes(None, 41)[0] == 120
        assert dynamics.passes(4000, 401)[0] == 4000
        assert dynamics.passes(4000, 400)[0] == 4389
        assert sum(dynamics.passes(None, 401)[:2]) == 600

    def test_one_step_per_sample_interval_accepted(self):
        assert dynamics.passes(400, 401)[0] == 400
        with pytest.raises(ConfigError, match="n_samples"):
            dynamics.passes(400, 402)
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

    @pytest.mark.parametrize("system", ["twolevel", "drive_set"])
    def test_states_do_not_depend_on_the_sample_grid(self, system):
        # the same steps in the same order: a coarser grid keeps a subset of the rows, bit for bit
        p = sta_params(chi=0.6, phi=0.4)
        ds = model.drive_set(p) if system == "drive_set" else twolevel.system(p)
        for n_steps, n_samples, every in ((800, 401, 2), (1200, 3, 600)):
            coarse = dynamics._propagate(ds, ds.frame.ket0, True, n_steps, n_samples)["psi"]
            fine = dynamics._propagate(ds, ds.frame.ket0, True, n_steps, n_steps + 1)["psi"]
            assert np.array_equal(coarse, fine[::every])


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
        assert traj.system.basis_dim == 8
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

    def test_half_grid_diff_is_read_on_the_shared_samples(self, monkeypatch):
        # the default start: 200 steps on every other one of 401 samples, then
        # 400 steps on all of them, compared on the even rows
        passes = []
        propagate = dynamics._propagate

        def recording(*args):
            r = propagate(*args)
            passes.append(r["psi"])
            return r

        monkeypatch.setattr(dynamics, "_propagate", recording)
        traj = dynamics.evolve(twolevel.system(sta_params(chi=0.5)), sta=True)
        assert [psi.shape[0] for psi in passes] == [201, 401] and traj.states is passes[-1]
        frame = traj.system.frame
        coarse, fine = (np.stack(logical.bloch(frame, psi)[:3], axis=1) for psi in passes)
        assert traj.refine_history == [(400, float(np.abs(fine[::2] - coarse).max()))]
        assert traj.converged and traj.steps_computed == 600
        np.testing.assert_array_equal(traj.t, np.arange(401) * (traj.params.tau / 400))


def _exact_step(chi):
    """C1q from the exact counterdiabatic endpoints Theta = atan2(sin th, cos th + chi)."""
    return 0.5 * (np.cos(np.arctan2(0.0, 1 + chi)) - np.cos(np.arctan2(0.0, chi - 1)))


class TestStepCount:
    """The step count comes from refine_tol, within a cap on the steps computed."""

    @pytest.mark.parametrize("chi", [0.3, -0.6, 1.35])
    def test_fig24_default_converges_at_400(self, chi, steps_computed):
        traj = dynamics.run(sta_params(chi=chi), sta=True)
        assert traj.converged
        assert steps_computed == [200, 400]
        assert traj.n_steps == 400
        assert [n for n, _ in traj.refine_history] == [400]
        assert traj.refine_history[-1][1] <= dynamics.REFINE_TOL
        c1 = topology.chern(traj).c1
        assert abs(c1 - _exact_step(chi)) <= 1e-6

    def test_fig1_default_converges(self, steps_computed):
        traj = dynamics.run(linear_response_params())
        assert traj.converged
        assert steps_computed == [200, 400, 800, 1600, 3200, 6400]
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
        assert steps_computed == [200, 400, 800, 1600, 3200, 6400, 12800]
        assert sum(steps_computed) <= dynamics.STEP_BUDGET * dynamics.BUDGET_STEPS
        assert len(traj.refine_history) == 6

    def test_ladders(self):
        # the coarse pass, then doublings while all passes together stay
        # within 7 coarse passes of n_steps, or of 4000 steps with None
        assert dynamics.passes(None, 401) == [200, 400, 800, 1600, 3200, 6400, 12800]
        assert dynamics.passes(None, 41) == [120, 240, 480, 960, 1920, 3840, 7680]
        assert dynamics.passes(400, 41) == [400, 800, 1600]
        assert dynamics.passes(300, 401) == [400, 800, 1600]  # rounded up to the whole grid
        assert dynamics.passes(4000, 400) == [4389, 8778, 17556]
        with pytest.raises(ConfigError, match=r"^n_steps must be >= 100, got 99$"):
            dynamics.passes(99, 401)
        for n_steps, n_samples in ((400, 1), (400, 402), (None, 1)):
            with pytest.raises(ConfigError, match=r"^need 2 <= n_samples <= n_steps \+ 1, or "
                                                  r"n_samples - 1 even and <= 2 \* n_steps$"):
                dynamics.passes(n_steps, n_samples)

    @pytest.mark.parametrize("chi, n_steps, n_samples, refine_tol, converged", [
        (0.5, None, 401, dynamics.REFINE_TOL, True),  # at the first doubling
        (0.97, None, 401, dynamics.REFINE_TOL, True),  # near the transition, at the third
        (0.5, 400, 41, 1e-14, False),  # the whole ladder, unconverged
        (0.5, None, 101, 1e-14, False),
    ])
    def test_a_run_walks_a_prefix_of_its_ladder(self, chi, n_steps, n_samples, refine_tol,
                                                converged, steps_computed):
        ladder = dynamics.passes(n_steps, n_samples)
        traj = dynamics.evolve(twolevel.system(sta_params(chi=chi)), sta=True, n_steps=n_steps,
                               n_samples=n_samples, refine_tol=refine_tol)
        k = len(traj.refine_history)
        assert traj.converged == converged
        assert k == len(ladder) - 1 or converged
        assert steps_computed == ladder[:k + 1]
        assert [n for n, _ in traj.refine_history] == ladder[1:k + 1]
        assert traj.n_steps == ladder[k]
        assert traj.steps_computed == sum(ladder[:k + 1])

    def test_explicit_steps_run_the_whole_grid_schedule(self, monkeypatch):
        # n_steps >= n_samples - 1: passes of N, 2N, ... on every sample, the
        # returned one bitwise a direct pass of its steps
        calls = []
        propagate = dynamics._propagate

        def recording(system, psi0, sta, n_steps, n_samples):
            calls.append((n_steps, n_samples))
            return propagate(system, psi0, sta, n_steps, n_samples)

        monkeypatch.setattr(dynamics, "_propagate", recording)
        system = model.drive_set(sta_params(chi=0.3))
        traj = dynamics.evolve(system, sta=True, n_steps=400)
        assert calls == [(400, 401), (800, 401)]
        assert traj.steps_computed == 1200
        direct = propagate(system, system.frame.ket0, True, 800, 401)["psi"]
        assert traj.states.tobytes() == direct.tobytes()

    def test_half_grid_floor(self):
        # fewer steps than sample intervals: an even count of intervals, at
        # most two per step; 399 intervals keep the whole-interval start
        assert dynamics.passes(None, 400)[0] == 399
        assert dynamics.passes(200, 401)[0] == 200
        assert dynamics.passes(300, 401)[0] == 400
        for n_steps, n_samples in ((199, 401), (200, 400), (398, 400)):
            with pytest.raises(ConfigError, match="n_samples"):
                dynamics.passes(n_steps, n_samples)
        traj = dynamics.evolve(twolevel.system(sta_params()), sta=True, n_steps=200)
        assert traj.n_steps == 400 and traj.t.size == 401 and traj.steps_computed == 600

    def test_fig24_converges_across_the_transition(self):
        # each point near |chi| = 1 doubles until its Bloch samples settle; C1
        # is the exact step at every one
        for chi in (0.3, 0.9, 0.97, 0.999, 1.001, 1.03, 1.35):
            traj = dynamics.run(sta_params(chi=chi), sta=True)
            assert traj.converged, chi
            assert abs(topology.chern(traj).c1 - _exact_step(chi)) <= 1e-6, chi


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
        assert traj.system.basis_dim == 8 and traj.system.leakage_bound <= model.LEAKAGE_TOL

    def test_fig1(self):
        traj = self._compare(linear_response_params(), sta=False, n_steps=2000)
        assert traj.system.basis_dim == 10 and traj.system.leakage_bound <= model.LEAKAGE_TOL


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
