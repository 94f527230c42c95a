"""End-to-end acceptance checks for both topology protocols.

Each test prints one PASS/FAIL line. Expensive propagations are shared
through session fixtures; the whole module takes a few minutes.
"""

import numpy as np
import pytest

from conftest import linear_response_params, sta_params
from knosim import dynamics, fock, logical, topology, twolevel, wigner

LINEAR_CHIS = (-1.5, -0.5, 0.0, 0.5, 1.5)
STA_CHIS = (-1.5, -1.2, -0.5, 0.0, 0.5, 1.2, 1.5)
TRIVIAL_CHIS = frozenset({-1.5, -1.2, 1.2, 1.5})  # |chi| > 1: no transfer


def report(num: int, desc: str, ok: bool) -> None:
    print(f"acceptance {num} [{desc}]: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="session")
def fig1_traj():
    return dynamics.run(linear_response_params(), n_steps=20000, n_samples=401)


@pytest.fixture(scope="session")
def linear_sweep():
    results = topology.sweep_chi(
        linear_response_params(),
        LINEAR_CHIS,
        sta=False,
        jobs=4,
        n_steps=20000,
        n_samples=401,
    )
    return dict(zip(LINEAR_CHIS, results))


@pytest.fixture(scope="session")
def sta_trajs():
    """(chi, initial) -> trajectory for the fast counterdiabatic preset."""
    out = {}
    for chi in STA_CHIS:
        for initial in ("ket0", "ket1"):
            out[(chi, initial)] = dynamics.run(
                sta_params(chi=chi), initial=initial, sta=True, n_steps=4000, n_samples=401,
            )
    return out


@pytest.fixture(scope="session")
def sta_chern(sta_trajs):
    return {
        key: topology.chern(traj)
        for key, traj in sta_trajs.items()
    }


def test_1_linear_response_chern(fig1_traj):
    res = topology.chern(fig1_traj)
    ok = abs(res.c1 - 0.975) <= 0.05
    report(1, f"linear-response C1 = {res.c1:.4f}, target 0.975 +- 0.05", ok)
    assert ok


def test_2_linear_response_transitions(linear_sweep):
    ok = True
    parts = []
    for chi in LINEAR_CHIS:
        c1 = linear_sweep[chi].c1
        good = c1 >= 0.9 if abs(chi) < 1 else c1 <= 0.1
        ok &= good
        parts.append(f"chi={chi:+.1f}: {c1:.3f}")
    report(2, "linear-response sweep " + ", ".join(parts), ok)
    assert ok


def test_3_sta_chern_steps(sta_chern):
    ok = True
    parts = []
    for chi in STA_CHIS:
        for initial, flip in (("ket0", 0.0), ("ket1", 1.0)):
            c1 = sta_chern[(chi, initial)].c1
            target = (0.0 if chi in TRIVIAL_CHIS else 1.0)
            if initial == "ket1":
                target = -target  # complementary branch
            good = abs(c1 - target) <= 0.05
            ok &= good
            if initial == "ket0":
                parts.append(f"chi={chi:+.1f}: {c1:+.3f}")
    report(3, "STA C1q steps (ket0) " + ", ".join(parts), ok)
    assert ok


def test_4_theta_q_endpoints(sta_trajs):
    ok = True
    for (chi, initial), traj in sta_trajs.items():
        end = topology.theta_q_series(traj)[-1, 1]
        transfer = abs(chi) < 1
        if initial == "ket1":
            transfer = not transfer
        target = np.pi if transfer else 0.0
        ok &= abs(end - target) <= 0.05
    report(4, "theta_q(pi) endpoints at 0 or pi +- 0.05 for all runs", ok)
    assert ok


def test_5_two_level_oracle_equivalence(fig1_traj, sta_trajs):
    worst = 0.0
    pairs = [
        (fig1_traj, twolevel.reference_dynamics(
            linear_response_params(), n_steps=20000, n_samples=401)),
        (sta_trajs[(0.0, "ket0")], twolevel.reference_dynamics(
            sta_params(), sta=True, n_steps=4000, n_samples=401)),
        (sta_trajs[(0.5, "ket0")], twolevel.reference_dynamics(
            sta_params(chi=0.5), sta=True, n_steps=4000, n_samples=401)),
    ]
    for full, ref in pairs:
        for k in ("sx", "sy", "sz"):
            worst = max(worst, float(np.abs(getattr(full, k) - getattr(ref, k)).max()))
    ok = worst <= 0.05
    report(5, f"full vs two-level reference, max|ds_j| = {worst:.4f} <= 0.05", ok)
    assert ok


def test_6_sta_eigenstate_following(sta_trajs):
    mins = []
    for chi in (0.0, -0.5, 0.5, -1.2, 1.2):
        res = dynamics.instantaneous_eigenstate_fidelity(sta_trajs[(chi, "ket0")])
        mins.append(res.min_fidelity)
    bare = dynamics.run(sta_params(), sta=False, n_steps=4000, n_samples=401)
    bare_min = dynamics.instantaneous_eigenstate_fidelity(bare).min_fidelity
    ok = min(mins) >= 0.99 and bare_min < 0.99
    report(
        6,
        f"CD on: min fidelity {min(mins):.4f} >= 0.99; CD off drops to {bare_min:.3f}",
        ok,
    )
    assert ok


def test_7_quantization_identities(sta_chern):
    worst = max(abs(r.c1 - r.c1_quadrature) for r in sta_chern.values())
    mono_ok = True
    for chi in (0.0, -0.5, 0.5, 0.9, -1.1, 1.1, 1.5, 2.0):
        val = twolevel.monopole_chern(chi)
        mono_ok &= abs(val - round(val)) <= 1e-3 and round(val) in (0, 1)
    ok = worst <= 0.01 and mono_ok
    report(
        7,
        f"closed form vs quadrature diff {worst:.4f} <= 0.01; "
        f"monopole flux quantized to 1e-3",
        ok,
    )
    assert ok


def test_8_numerical_hygiene(fig1_traj, sta_trajs):
    trajs = [fig1_traj] + list(sta_trajs.values())
    norm_drift = max(float(np.abs(t.norm - 1).max()) for t in trajs)
    refine = max(t.refine_history[-1][1] for t in trajs)
    leak = max(float((1 - t.pop).max()) for t in trajs)
    conv = all(t.converged for t in trajs)
    ok = norm_drift <= 1e-6 and refine <= 1e-4 and leak <= 0.05 and conv
    report(
        8,
        f"norm drift {norm_drift:.1e} <= 1e-6; step-halving change "
        f"{refine:.1e} <= 1e-4; leakage {leak:.3f} <= 0.05",
        ok,
    )
    assert ok


def test_9_wigner_checks(sta_trajs):
    vac = np.eye(10, dtype=complex)[0]
    w_vac = wigner.wigner([vac], half_width=3.0, n_points=41)[0].at_origin()

    a0 = np.sqrt(2)
    plus, _ = fock.coherent_state(a0, 30)
    minus, _ = fock.coherent_state(-a0, 30)
    even, odd = (x / np.linalg.norm(x) for x in (plus + minus, plus - minus))
    w_even = wigner.wigner([even], half_width=3.0, n_points=41)[0].at_origin()
    w_odd = wigner.wigner([odd], half_width=3.0, n_points=41)[0].at_origin()

    traj = sta_trajs[(0.0, "ket0")]
    # the movie's five snapshots: samples 0, tau/4, ..., tau, lifted off the basis
    snapshots = [traj.system.lift(traj.states[k]) for k in range(0, 401, 100)]
    p = traj.params
    frame = logical.build_frame(p.alpha0, p.dim)
    fid = abs(np.vdot(snapshots[-1], frame.ket1)) ** 2
    # the movie frames walk the state from the +alpha0 lobe to the -alpha0 lobe
    grids = wigner.wigner(snapshots, half_width=3.0, n_points=41)
    i0 = 20  # im = 0 row
    j = [g.axis[int(np.argmax(g.values[i0]))] for g in grids]
    moved = j[0] > 1.0 and j[-1] < -1.0

    two_pi = 2 / np.pi
    ok = (
        abs(w_vac - two_pi) <= 1e-6
        and abs(w_even - two_pi) <= 1e-6
        and abs(w_odd + two_pi) <= 1e-6
        and fid >= 0.98
        and moved
    )
    report(
        9,
        f"W(0): vacuum {w_vac:.6f}, even cat {w_even:.6f}, odd cat {w_odd:.6f}; "
        f"movie final fidelity with ket1 = {fid:.4f} >= 0.98",
        ok,
    )
    assert ok
