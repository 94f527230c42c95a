"""Built-in experiment presets.

Both presets use the cat at alpha0 = sqrt(2) (P = 2K = 2*pi*1000 rad/us).

* fig1: slow linear ramp, tau = 40 us, Omega0 = P / (10 exp(2 alpha0^2)),
  delta_z = 2 Omega0 -> Berry-curvature extraction by linear response.
* fig2-4: fast cosine ramp with the counterdiabatic term, tau = 1.5 us,
  Omega0 = delta_z = 2*pi*0.02 rad/us -> polar-angle (theta_q) protocol.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2 * np.pi

_P = TWO_PI * 1000.0
_K = TWO_PI * 500.0

PRESETS: dict[str, dict] = {
    "fig1": {
        "protocol": "linear_response",
        "kerr": _K,
        "pump": _P,
        "omega0": _P / (10 * np.exp(4.0)),
        "delta_z": 2 * _P / (10 * np.exp(4.0)),
        "delta_0": 0.0,
        "tau": 40.0,
        "schedule": "linear",
        "dim": 30,
        "hx_prefactor": "exact",
        "initial": "ket0",
        # Pinned: from half the sample grid (200 steps) the Bloch samples
        # converge at 6400 steps (12600 matrices in all), but C1 there is
        # 0.9513 against 0.9520, and convergence does not check C1.
        "n_steps": 20000,
        "n_samples": 401,
    },
    "fig2-4": {
        "protocol": "sta",
        "kerr": _K,
        "pump": _P,
        "omega0": TWO_PI * 0.02,
        "delta_z": TWO_PI * 0.02,
        "delta_0": 0.0,
        "tau": 1.5,
        "schedule": "cosine",
        "dim": 30,
        "hx_prefactor": "exact",
        "initial": "ket0",
        "n_samples": 401,
    },
}
