"""Correctness gates, each computed apart from knosim or from a property the
method must have; none compares against a stored copy of earlier output.

Every gate function returns one `(operation, ok, detail)` tuple per checked
operation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

# The presets as README.md documents them (angular units, rad/us).
KERR = 2 * math.pi * 500.0
PUMP = 2 * KERR
ALPHA0 = math.sqrt(PUMP / KERR)
FIG1_OMEGA0 = PUMP / (10 * math.exp(2 * ALPHA0**2))
FIG1_DELTA_Z = 2 * FIG1_OMEGA0
FIG1_TAU = 40.0
SNAPSHOT_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

TWO_LEVEL_BLOCH_ATOL = 0.05
CHERN_REQUAD_ATOL = 1e-9
FIG1_C1_RANGE = (0.9, 1.05)
NORM_ATOL = 1e-8
MIN_POP = 0.99
STEP_ATOL = 1e-6
MONOPOLE_ATOL = 1e-4
WIGNER_POINT_SLACK = 1e-6
WIGNER_INTEGRAL_ATOL = 1e-3
CAT_POP_MIN = 1 - 1e-6


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a knosim CSV table; booleans read as 1.0 and 0.0."""
    words = {"true": 1.0, "false": 0.0}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {
        h: np.array([words[r[i]] if r[i] in words else float(r[i]) for r in body])
        for i, h in enumerate(header)
    }


def branch_sign(initial: str) -> int:
    """+1 for ket0; ket1 follows the other eigenstate, so C1(ket1) = -C1(ket0)."""
    return 1 if initial == "ket0" else -1


def exact_step(chi: float) -> float:
    """C1q from the exact counterdiabatic endpoints Theta = atan2(sin th, cos th + chi)."""
    big0 = math.atan2(0.0, 1.0 + chi)
    big_pi = math.atan2(math.sin(math.pi), math.cos(math.pi) + chi)
    return 0.5 * (math.cos(big0) - math.cos(big_pi))


def two_level_bloch(t: np.ndarray, initial: str) -> np.ndarray:
    """(sx, sy, sz) of H2 = (1/2)[[Dz, Om], [Om, -Dz]] on the fig1 linear ramp."""

    def rhs(tt, c):
        th = math.pi * tt / FIG1_TAU
        dz = FIG1_DELTA_Z * math.cos(th)
        om = FIG1_OMEGA0 * math.sin(th)
        return -0.5j * np.array([dz * c[0] + om * c[1], om * c[0] - dz * c[1]])

    c0 = np.array([1.0, 0.0], complex) if initial == "ket0" else np.array([0.0, 1.0], complex)
    sol = solve_ivp(rhs, (0.0, FIG1_TAU), c0, t_eval=t, method="DOP853", rtol=1e-10, atol=1e-12)
    a, b = sol.y
    cross = np.conj(a) * b
    return np.stack([2 * cross.real, 2 * cross.imag, np.abs(a) ** 2 - np.abs(b) ** 2], axis=1)


def fig1_linear(out: Path, initial: str) -> list[tuple]:
    traj = read_table(out / "trajectory.csv")
    chern = json.loads((out / "chern.json").read_text())
    t = traj["t_us"]
    bloch = np.stack([traj["sx"], traj["sy"], traj["sz"]], axis=1)
    dev = float(np.abs(bloch - two_level_bloch(t, initial)).max())

    theta = math.pi * t / FIG1_TAU
    b = -FIG1_OMEGA0 * np.sin(theta) * traj["sy"] / (2 * math.pi / FIG1_TAU)
    c1 = float(np.sum((b[1:] + b[:-1]) / 2 * np.diff(theta)))
    mirrored = branch_sign(initial) * chern["c1"]
    norm_dev = float(np.abs(traj["norm"] - 1).max())
    min_pop = float(traj["pop"].min())
    checks = {
        "bloch_vs_two_level": dev <= TWO_LEVEL_BLOCH_ATOL,
        "c1_requadrature": abs(c1 - chern["c1"]) <= CHERN_REQUAD_ATOL,
        "c1_range": FIG1_C1_RANGE[0] <= mirrored <= FIG1_C1_RANGE[1],
        "norm": norm_dev <= NORM_ATOL,
        "pop": min_pop >= MIN_POP,
    }
    detail = {
        "bloch_dev": dev, "c1": chern["c1"], "c1_bench": c1,
        "norm_dev": norm_dev, "min_pop": min_pop,
        "failed": [k for k, ok in checks.items() if not ok],
    }
    return [("simulate fig1", all(checks.values()), detail)]


def sta_sweep(out: Path, chis: list[float], initial: str) -> list[tuple]:
    with open(out / "sweep.csv", newline="") as fh:
        rows = {float(r["chi"]): r for r in csv.DictReader(fh)}
    results = []
    for chi in chis:
        row = rows.get(chi)
        want = branch_sign(initial) * exact_step(chi)
        if row is None or row["status"] != "ok":
            results.append((f"chi={chi}", False, {"error": "missing" if row is None else row["status"]}))
            continue
        c1 = float(row["c1"])
        results.append((f"chi={chi}", abs(c1 - want) <= STEP_ATOL, {"c1": c1, "want": want}))
    return results


def _cat_basis() -> np.ndarray:
    """Rows: the Loewdin kets 0 and 1 as coefficients on (|+a0>, |-a0>)."""
    s = math.exp(-2 * ALPHA0**2)
    n_even = 1 / math.sqrt(2 * (1 + s))
    n_odd = 1 / math.sqrt(2 * (1 - s))
    a = (n_even + n_odd) / math.sqrt(2)
    b = (n_even - n_odd) / math.sqrt(2)
    return np.array([[a, b], [b, a]])


def cat_wigner(alpha: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Closed-form W of a qubit state rho on the Loewdin cat basis.

    Sum of coherent-state cross-Wigner functions:
    W_{|beta><gamma|}(alpha) = (2/pi) exp(-2i Im(alpha beta*)) <gamma|2 alpha - beta>.
    """
    u = _cat_basis()
    betas = (ALPHA0, -ALPHA0)
    w = np.zeros(alpha.shape, complex)
    for i in range(2):
        for j in range(2):
            for bi, beta in enumerate(betas):
                for gi, gamma in enumerate(betas):
                    delta = 2 * alpha - beta
                    overlap = np.exp(-abs(gamma) ** 2 / 2 - np.abs(delta) ** 2 / 2 + np.conj(gamma) * delta)
                    cross = 2 / np.pi * np.exp(-2j * np.imag(alpha * np.conj(beta))) * overlap
                    w += rho[i, j] * u[i, bi] * u[j, gi] * cross
    return w.real


def wigner_movie(out: Path) -> list[tuple]:
    traj = read_table(out / "trajectory.csv")
    tau = float(traj["t_us"][-1])
    results = []
    for k, frac in enumerate(SNAPSHOT_FRACTIONS):
        row = int(np.argmin(np.abs(traj["t_us"] - frac * tau)))
        sx, sy, sz, pop = (float(traj[c][row]) for c in ("sx", "sy", "sz", "pop"))
        rho = 0.5 * np.array([[pop + sz, sx - 1j * sy], [sx + 1j * sy, pop - sz]])
        grid = read_table(out / f"wigner_t{k}.csv")
        alpha = grid["re_alpha"] + 1j * grid["im_alpha"]
        dev = float(np.abs(grid["w"] - cat_wigner(alpha, rho)).max())
        # The part of the state outside the cat subspace, of weight 1 - pop,
        # shifts W by at most (2/pi)(2 sqrt(pop (1 - pop)) + 1 - pop).
        leak = max(0.0, 1.0 - pop)
        point_atol = 2 / np.pi * (2 * math.sqrt(pop * leak) + leak) + WIGNER_POINT_SLACK
        re_axis = np.unique(grid["re_alpha"])
        im_axis = np.unique(grid["im_alpha"])
        integral = float(grid["w"].sum() * (re_axis[1] - re_axis[0]) * (im_axis[1] - im_axis[0]))
        peak = float(np.abs(grid["w"]).max())
        checks = {
            "cat_subspace": pop >= CAT_POP_MIN,
            "closed_form": dev <= point_atol,
            "integral": abs(integral - 1) <= WIGNER_INTEGRAL_ATOL,
            "bound": peak <= 2 / np.pi * (1 + 1e-12),
        }
        detail = {
            "pop": pop, "closed_form_dev": dev, "closed_form_atol": point_atol,
            "integral": integral, "max_abs_w": peak,
            "failed": [c for c, ok in checks.items() if not ok],
        }
        results.append((f"wigner_t{k}", all(checks.values()), detail))
    return results


def twolevel_oracle(out: Path, chis: list[float], initial: str) -> list[tuple]:
    points = {p["chi"]: p for p in json.loads((out / "twolevel.json").read_text())["points"]}
    results = []
    for chi in chis:
        p = points.get(chi)
        if p is None:
            results += [(f"{op} chi={chi}", False, {"error": "missing"}) for op in ("reference", "monopole")]
            continue
        step = exact_step(chi)
        s0 = math.sqrt(p["sx"][0] ** 2 + p["sy"][0] ** 2 + p["sz"][0] ** 2)
        s1 = math.sqrt(p["sx"][-1] ** 2 + p["sy"][-1] ** 2 + p["sz"][-1] ** 2)
        c1q = 0.5 * (p["sz"][0] / s0 - p["sz"][-1] / s1)
        want = branch_sign(initial) * step
        results.append((f"reference chi={chi}", abs(c1q - want) <= STEP_ATOL,
                        {"c1q": c1q, "want": want}))
        results.append((f"monopole chi={chi}", abs(p["monopole_c1"] - step) <= MONOPOLE_ATOL,
                        {"flux": p["monopole_c1"], "want": step}))
    return results
