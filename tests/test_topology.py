import os
from concurrent.futures import Future

import numpy as np
import pytest

from conftest import linear_response_params, sta_params
from knosim import cli, dynamics, topology, twolevel
from knosim.errors import ConfigError, DegenerateReadoutError
from knosim.logical import LogicalFrame
from knosim.model import DriveSet


def make_traj(theta, sx, sy, sz, params, sta=False, initial="ket0", **kw):
    """Hand-built trajectory for post-processing tests: at each theta, a state
    on a 3-level DriveSet (frame kets = levels 0 and 1) whose Bloch vector is
    (sx, sy, sz), of length L <= 1, with weight 1 - L on level 2."""
    theta = np.asarray(theta, float)
    # invert the linear schedule for t
    t = theta / np.pi * params.tau if params.schedule == "linear" else np.linspace(0, params.tau, theta.size)
    sx, sy, sz = (np.asarray(v, float) * np.ones_like(theta) for v in (sx, sy, sz))
    length = np.sqrt(sx**2 + sy**2 + sz**2)
    states = np.stack([
        np.sqrt((length + sz) / 2),
        np.sqrt((length - sz) / 2) * np.exp(1j * np.arctan2(sy, sx)),
        np.sqrt(np.maximum(1 - length, 0.0)),  # a unit vector may round to 1 + 1 ulp
    ], axis=1)
    e = np.eye(3, dtype=complex)
    system = DriveSet(params, 0, 0, 0, 0, LogicalFrame(e[0], e[1]), e)
    return dynamics.Trajectory(
        system, t, theta, states, n_steps=theta.size - 1, sta=sta, initial=initial,
        **{"converged": True, **kw},
    )


def rotation_traj(params, initial="ket0", sta=True):
    """A stand-in run whose Bloch vector turns from the north to the south
    pole: chern reads C1 = 1 from it."""
    theta = np.linspace(0, np.pi, 41)
    return make_traj(theta, np.sin(theta), 0.0, np.cos(theta), params, sta=sta, initial=initial)


class TestBerryCurvature:
    def test_ideal_two_level_curvature(self):
        # oracle: adiabatic 2x2 dynamics realizes B_theta = sin(theta)/2
        p = linear_response_params()
        traj = twolevel.reference_dynamics(p, n_steps=20000, n_samples=401)
        series = topology.berry_curvature(traj)
        # pointwise B_theta oscillates around sin(theta)/2 (ramp turn-on
        # transient) but the oscillation integrates away
        theta, b_theta = series.T
        assert abs(float(np.trapezoid(b_theta - np.sin(theta) / 2, theta))) < 0.01
        res = topology.chern(traj)
        assert abs(res.c1 - 1) < 0.01
        assert res.method == "linear_response"
        assert res.converged

    def test_detuned_two_level_matches_monopole(self):
        for chi, target in ((0.5, 1.0), (1.5, 0.0)):
            p = linear_response_params(chi=chi)
            traj = twolevel.reference_dynamics(p, n_steps=20000, n_samples=401)
            res = topology.chern(traj)
            assert abs(res.c1 - target) < 0.05
            assert abs(res.c1 - twolevel.monopole_chern(chi)) < 0.05

    def test_rejects_sta_run(self):
        p = sta_params()
        traj = make_traj([0, 1, 2, 3], 0, 0, 1, p, sta=True)
        with pytest.raises(ConfigError, match="sta"):
            topology.berry_curvature(traj)

    def test_rejects_phase(self):
        p = linear_response_params(phi=0.3)
        traj = make_traj([0, 1, 2, 3], 0, 0, 1, p)
        with pytest.raises(ConfigError, match="phi"):
            topology.berry_curvature(traj)

    def test_analytic_lag(self):
        # synthetic: constant sy = -2 v / Omega0 makes B_theta = sin(theta),
        # whose integral over [0, pi] is 2
        p = linear_response_params()
        theta = np.linspace(0, np.pi, 201)
        v = np.pi / p.tau
        traj = make_traj(theta, 0.0, -2 * v / p.omega0, 0.0, p)
        series = topology.berry_curvature(traj)
        assert np.abs(series[:, 0] - theta).max() == 0
        assert np.abs(series[:, 1] - np.sin(theta)).max() < 1e-12
        res = topology.chern(traj)
        assert abs(res.c1 - 2) < 1e-4

    def test_zero_where_the_ramp_stands_still(self):
        # the cosine ramp's theta_dot is 0 at t = 0 only: B_theta is 0 there,
        # and elsewhere the same -Omega0 sin(theta) sy / (2 v) as on a linear ramp
        p = linear_response_params(schedule="cosine")
        traj = make_traj(np.linspace(0, np.pi, 21), 0.0, 0.3, 0.0, p)
        v = p.theta_dot(traj.t)
        assert v[0] == 0 and np.all(v[1:] != 0)
        theta, b = topology.berry_curvature(traj).T
        assert b[0] == 0
        assert np.array_equal(b[1:], -p.omega0 * np.sin(theta[1:]) * traj.sy[1:] / (2 * v[1:]))

    def test_too_few_samples(self):
        traj = make_traj(np.linspace(0, np.pi, 5), 0.0, 0.0, 1.0, linear_response_params())
        with pytest.raises(ConfigError, match="curvature samples"):
            topology.chern(traj)


class TestThetaQ:
    def test_pure_rotation(self):
        p = sta_params()
        theta = np.linspace(0, np.pi, 51)
        traj = make_traj(theta, np.sin(theta), 0.0, np.cos(theta), p, sta=True)
        series = topology.theta_q_series(traj)
        assert np.abs(series[:, 1] - theta).max() < 1e-9

    def test_normalizes_short_bloch(self):
        p = sta_params()
        theta = np.linspace(0, np.pi, 51)
        traj = make_traj(theta, 0.5 * np.sin(theta), 0.0, 0.5 * np.cos(theta), p, sta=True)
        series = topology.theta_q_series(traj)
        assert np.abs(series[:, 1] - theta).max() < 1e-9

    def test_degenerate_readout(self):
        p = sta_params()
        traj = make_traj(np.linspace(0, np.pi, 11), 0.0, 0.0, 0.0, p, sta=True)
        with pytest.raises(DegenerateReadoutError):
            topology.theta_q_series(traj)


def polar_traj(theta, theta_q):
    """An STA run whose Bloch vector has polar angle theta_q at theta."""
    return make_traj(theta, np.sin(theta_q), 0.0, np.cos(theta_q), sta_params(), sta=True)


class TestChernSta:
    def test_full_sweep_closed_form(self):
        theta = np.linspace(0, np.pi, 101)
        res = topology.chern(polar_traj(theta, theta))
        assert abs(res.c1 - 1) < 1e-12
        assert abs(res.c1_quadrature - 1) < 1e-3
        assert res.warning is None
        assert res.method == "sta_polar"

    def test_partial_sweep(self):
        # theta_q goes out to pi/3 and returns: both routes give zero
        theta_q = np.concatenate([np.linspace(0, np.pi / 3, 40), np.linspace(np.pi / 3, 0, 40)])
        res = topology.chern(polar_traj(np.linspace(0, np.pi, 80), theta_q))
        assert abs(res.c1) < 1e-12

    def test_quadrature_disagreement_warns(self):
        # non-monotone path whose net quadrature differs from the endpoints
        theta_q = np.array([0.0, np.pi, 0.0, np.pi / 2])
        res = topology.chern(polar_traj(np.linspace(0, np.pi, 4), theta_q))
        assert res.warning is not None


class TestRunLabels:
    """A ChernResult describes the run it was read from."""

    @pytest.mark.parametrize("converged", [True, False])
    def test_labels_come_from_the_trajectory(self, converged):
        theta = np.linspace(0, np.pi, 41)
        history = [(80, 3e-3), (160, 7e-4)]
        kw = {"initial": "ket1", "converged": converged, "refine_history": history}
        lr_traj = make_traj(theta, 0.0, 0.1, 0.0, linear_response_params(chi=0.5), **kw)
        sta_traj = make_traj(theta, np.sin(theta), 0.0, np.cos(theta), sta_params(chi=0.5),
                             sta=True, **kw)
        for res in (topology.chern(lr_traj), topology.chern(sta_traj)):
            assert res.initial == "ket1"
            assert res.chi == 0.5
            assert res.converged is converged
            assert res.n_steps_used == 40
            assert res.refine_history == ((80, 3e-3), (160, 7e-4))
            assert res.refine_diff == 7e-4


class TestSweep:
    def test_sta_sweep(self):
        p = sta_params()
        results = topology.sweep_chi(
            p, [0.0, 1.0, 1.5], sta=True,
            n_steps=400, n_samples=41, refine_tol=1e-2,
        )
        assert [r.chi for r in results] == [0.0, 1.0, 1.5]
        assert abs(results[0].c1 - 1) < 0.05
        # at the transition the degeneracy lies on the ramp, so the
        # counterdiabatic term is singular: a recorded failed point
        assert np.isnan(results[1].c1) and not results[1].converged
        assert results[1].error == "counterdiabatic coefficient singular at chi=1.0"
        assert abs(results[2].c1) < 0.05
        for r in (results[0], results[2]):
            assert r.refine_history and r.n_steps_used == r.refine_history[-1][0]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_refused_before_any_point(self, monkeypatch, jobs):
        def no_run(*args, **kwargs):
            raise AssertionError("a point ran with jobs < 1")

        monkeypatch.setattr(topology.dynamics, "run", no_run)
        with pytest.raises(ConfigError, match=rf"^jobs must be >= 1, got {jobs}$"):
            topology.sweep_chi(sta_params(), [0.5], jobs=jobs)

    def test_sweep_records_singular_points(self, monkeypatch):
        from knosim.errors import SingularDriveError

        def boom(params, initial, sta, **kw):
            if abs(params.chi - 1.0) < 1e-9:
                raise SingularDriveError("vanishing gap")
            if abs(params.chi - 2.0) < 1e-9:
                raise ConfigError("state leaks out of the truncation")
            return rotation_traj(params, initial, sta)

        monkeypatch.setattr(topology.dynamics, "run", boom)
        results = topology.sweep_chi(sta_params(), [0.5, 1.0, 2.0])
        assert results[0].error is None
        assert abs(results[0].c1 - 1) < 1e-12 and results[0].method == "sta_polar"
        for failed in results[1:]:
            assert failed.error is not None
            assert np.isnan(failed.c1) and not failed.converged
            assert failed.n_steps_used == 0 and failed.refine_history == ()
        assert "leaks" in results[2].error

    @pytest.mark.parametrize("params, kwargs, message", [
        (sta_params(), {"initial": "ket2"}, r"^initial must be 'ket0' or 'ket1', got 'ket2'$"),
        (sta_params(), {"n_steps": 50}, "^n_steps must be >= 100, got 50$"),
        (sta_params(), {"n_samples": 1}, "^need 2 <= n_samples <= n_steps"),
        (linear_response_params(phi=0.3), {"sta": False},
         "^linear response assumes phi = 0, got 0.3$"),
        (linear_response_params(), {"sta": False, "n_samples": 5},
         "^need >= 10 curvature samples, got 5$"),
    ], ids=["initial", "n_steps", "n_samples", "bare-phi", "bare-samples"])
    def test_whole_sweep_fault_refused_before_any_point(self, steps_computed, params, kwargs,
                                                        message):
        # no point's chi causes it, so the sweep raises it once, not as a row per point
        with pytest.raises(ConfigError, match=message):
            topology.sweep_chi(params, [0.5, 1.5], **{"n_steps": 400, "n_samples": 41, **kwargs})
        assert steps_computed == []

    def test_out_of_range_point_fails_alone(self):
        # delta_0 = 1e308 * delta_z is not finite: that point's ModelParams
        # fails inside the sweep, the other point runs
        cfg = cli.resolve_config("fig2-4", {"delta_z": 2.0, "omega0": 2.0})
        ok, failed = topology.sweep_chi(cfg.params, [0.5, 1e308], n_steps=400, n_samples=41)
        assert ok.error is None and ok.converged and abs(ok.c1 - 1) < 1e-3
        assert failed.chi == 1e308 and np.isnan(failed.c1) and not failed.converged
        assert "delta_0" in failed.error

    def test_empty_sweep(self):
        with pytest.raises(ConfigError, match="^sweep requires a non-empty chi_values list$"):
            topology.sweep_chi(sta_params(), [])

    def test_failures_in_either_share_fail_alone(self, monkeypatch):
        # two workers: this process runs points 0 and 2, its one child 1 and 3
        monkeypatch.setattr(topology.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = cli.resolve_config("fig2-4", {"delta_z": 2.0, "omega0": 2.0})
        chis = [1e308, 0.5, -0.5, 1.0]
        results = topology.sweep_chi(cfg.params, chis, jobs=2, n_steps=400, n_samples=41)
        assert [r.chi for r in results] == chis
        assert "delta_0" in results[0].error
        assert results[3].error == "counterdiabatic coefficient singular at chi=1.0"
        for r in (results[0], results[3]):
            assert np.isnan(r.c1) and not r.converged
        for r in results[1:3]:
            assert r.error is None and r.converged and abs(r.c1 - 1) < 1e-3

    def test_two_workers_fork_one_child(self, monkeypatch, tmp_path):
        # each run leaves a file named for the process that ran it
        def run(params, initial, sta, **kw):
            (tmp_path / str(os.getpid())).touch()
            return rotation_traj(params, initial, sta)

        monkeypatch.setattr(topology.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(topology.dynamics, "run", run)
        results = topology.sweep_chi(sta_params(), [0.1, 0.2, 0.3, 0.4], jobs=2)
        assert [r.chi for r in results] == [0.1, 0.2, 0.3, 0.4]
        pids = {int(f.name) for f in tmp_path.iterdir()}
        assert os.getpid() in pids and len(pids) == 2

    @staticmethod
    def started_pools(monkeypatch, cores, usable, jobs, n_chis):
        """The max_workers of each pool a sweep of n_chis points starts with
        jobs, on cores cores of which the process may use usable."""
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(topology, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(topology.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(topology.os, "sched_getaffinity", lambda pid: set(range(usable)),
                            raising=False)
        monkeypatch.setattr(topology.dynamics, "run", rotation_traj)
        results = topology.sweep_chi(sta_params(), [0.1 * i for i in range(n_chis)], jobs=jobs)
        assert len(results) == n_chis
        return started

    @pytest.mark.parametrize(
        "jobs, n_chis, workers", [(64, 3, 3), (64, 8, 4), (2, 8, 2), (1, 8, None), (8, 1, None)]
    )
    def test_pool_capped_at_cores_and_points(self, monkeypatch, jobs, n_chis, workers):
        # this process is one of the workers: the pool forks the others
        started = self.started_pools(monkeypatch, 4, 4, jobs, n_chis)
        assert started == ([workers - 1] if workers else [])

    def test_pool_capped_at_usable_cores(self, monkeypatch):
        # 4 cores, of which the process's affinity allows 1: no pool starts
        assert self.started_pools(monkeypatch, 4, 1, 2, 8) == []


class TestTruncationRule:
    @pytest.mark.parametrize("chi", [0.0, 0.5, 0.97])
    def test_c1_converged_at_the_smallest_admitted_dims(self, chi):
        # the truncation rule is not too loose: fig2-4's C1 at dim 15, the
        # smallest dim it admits at alpha0 = sqrt(2), is that of dim 30
        def c1(dim):
            cfg = cli.resolve_config("fig2-4", {"dim": dim, "chi": chi})
            return topology.chern(dynamics.run(cfg.params, sta=True, n_samples=cfg.n_samples)).c1

        with pytest.raises(ConfigError, match="at dim=14"):
            cli.resolve_config("fig2-4", {"dim": 14})
        ref = c1(30)
        for dim in (15, 16, 20):
            assert abs(c1(dim) - ref) <= 1e-6
