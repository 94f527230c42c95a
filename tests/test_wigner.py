import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import laguerre

from knosim import cli, fock, wigner
from knosim.errors import ConfigError, DimensionMismatchError


def reference_wigner(amplitudes, alphas):
    """Independent oracle: (2/pi) <psi| D_a P D_a^dag |psi> at each point a,
    with D_a = exp(a a^dag - a* a) built by eigh on a zero-padded Fock space
    large enough to hold every displaced copy of psi."""
    r = max(abs(a) for a in alphas) + np.sqrt(len(amplitudes))
    big = int(np.ceil(r * r + 6 * r + 9)) + 10
    psi = np.zeros(big, dtype=complex)
    psi[: len(amplitudes)] = amplitudes
    lower = np.diag(np.sqrt(np.arange(1, big)), 1).astype(complex)
    signs = np.where(np.arange(big) % 2 == 0, 1.0, -1.0)
    out = []
    for a in alphas:
        # D_a = exp(-i M) with M = i (a a^dag - a* a) Hermitian
        w, v = np.linalg.eigh(1j * (a * lower.T - np.conj(a) * lower))
        d = (v * np.exp(-1j * w)) @ v.conj().T
        out.append(2 / np.pi * float(np.dot(signs, np.abs(d.conj().T @ psi) ** 2)))
    return np.array(out)


def grid(psi, **kw):
    """The Wigner grid of one state."""
    return wigner.wigner([psi], **kw)[0]


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amp / np.linalg.norm(amp)


def gaussian_wigner(axis, alpha):
    """Analytic oracle: W of a coherent state |alpha> is a Gaussian,
    W(b) = (2/pi) exp(-2 |b - alpha|^2)."""
    re, im = np.meshgrid(axis, axis, indexing="xy")
    b = re + 1j * im
    return (2 / np.pi) * np.exp(-2 * np.abs(b - alpha) ** 2)


@pytest.fixture(scope="module")
def vacuum_grid():
    vac = np.zeros(10, dtype=complex)
    vac[0] = 1
    return grid(vac, half_width=3.0, n_points=41)


class TestVacuum:
    def test_matches_analytic_gaussian(self, vacuum_grid):
        g = vacuum_grid
        expected = gaussian_wigner(g.axis, 0.0)
        assert np.abs(g.values - expected).max() <= 1e-8

    def test_origin_value(self, vacuum_grid):
        assert abs(vacuum_grid.at_origin() - 2 / np.pi) <= 1e-10

    def test_normalization(self, vacuum_grid):
        g = vacuum_grid
        cell = (g.axis[1] - g.axis[0]) * (g.axis[1] - g.axis[0])
        assert abs(g.values.sum() * cell - 1) <= 1e-3

    def test_no_low_confidence_cells(self, vacuum_grid):
        # nothing is truncated: the table's low_confidence column is false in every cell
        flags = cli._grid_columns(vacuum_grid)["low_confidence"]
        assert flags.shape == (vacuum_grid.values.size,)
        assert not flags.any()

class TestCoherent:
    def test_displaced_gaussian(self):
        psi = fock.coherent_state(1.0 + 0.5j, 25)
        g = grid(psi, half_width=3.0, n_points=41)
        expected = gaussian_wigner(g.axis, 1.0 + 0.5j)
        assert np.abs(g.values - expected).max() <= 1e-6

    @pytest.mark.parametrize("beta", [1.2 + 0.7j, -1.2 + 0.7j, -1.2 - 0.7j, 1.2 - 0.7j],
                             ids=["q1", "q2", "q3", "q4"])
    def test_every_quadrant_on_the_movie_grid(self, beta):
        # the radial sums are turned by e^{-ik phi}: the wrong sign would
        # mirror the Gaussian through the real axis
        psi = fock.coherent_state(beta, 40)
        g = grid(psi)
        assert np.abs(g.values - gaussian_wigner(g.axis, beta)).max() <= 1e-10

    def test_peak_location(self):
        psi = fock.coherent_state(np.sqrt(2), 30)
        g = grid(psi, half_width=3.0, n_points=41)
        i, j = np.unravel_index(np.argmax(g.values), g.values.shape)
        assert abs(g.axis[j] - np.sqrt(2)) <= 0.15
        assert abs(g.axis[i]) <= 0.15


class TestFockAndCat:
    def test_single_photon_negative_origin(self):
        amp = np.zeros(12, dtype=complex)
        amp[1] = 1
        g = grid(amp, half_width=3.0, n_points=41)
        assert abs(g.at_origin() + 2 / np.pi) <= 1e-8

    def test_even_cat_origin_equals_parity(self):
        # W(0) = (2/pi) <parity>; the even cat has parity +1 exactly
        a0 = np.sqrt(2)
        plus = fock.coherent_state(a0, 30)
        minus = fock.coherent_state(-a0, 30)
        cat = (plus + minus) / np.linalg.norm(plus + minus)
        g = grid(cat, half_width=3.0, n_points=41)
        assert abs(g.at_origin() - 2 / np.pi) <= 1e-6

    def test_cat_has_two_lobes_and_fringes(self):
        a0 = np.sqrt(2)
        plus = fock.coherent_state(a0, 30)
        minus = fock.coherent_state(-a0, 30)
        cat = (plus + minus) / np.linalg.norm(plus + minus)
        g = grid(cat, half_width=3.0, n_points=41)
        j_plus = np.argmin(np.abs(g.axis - a0))
        j_minus = np.argmin(np.abs(g.axis + a0))
        i0 = np.argmin(np.abs(g.axis))
        assert g.values[i0, j_plus] > 0.2
        assert g.values[i0, j_minus] > 0.2
        assert g.values.min() < -0.1  # interference fringes go negative


class TestGridMechanics:
    def test_minimum_points(self):
        vac = np.zeros(5, dtype=complex)
        vac[0] = 1
        with pytest.raises(ConfigError, match="^n_points must be >= 41, got 11$"):
            wigner.wigner([vac], n_points=11)

    def test_values_layout(self, vacuum_grid):
        # values[i, j] = W(axis[j] + 1i * axis[i])
        g = vacuum_grid
        assert g.values.shape == (g.axis.size, g.axis.size)

    @pytest.mark.parametrize("half_width, n_points", [(3.5, 101), (4.5, 81), (3.0, 41), (3.0, 42)])
    def test_axis_is_exactly_mirror_symmetric(self, half_width, n_points):
        # linspace's own middle of 101 points over +-3.5 is 4.4e-16, not 0
        vac = np.eye(10, dtype=complex)[0]
        g = grid(vac, half_width=half_width, n_points=n_points)
        assert np.array_equal(g.axis, -g.axis[::-1])
        assert (g.axis[0], g.axis[-1]) == (-half_width, half_width)
        assert np.abs(g.axis - np.linspace(-half_width, half_width, n_points)).max() <= 1e-15
        assert np.all(np.diff(g.axis) > 0)

    def test_origin_of_an_odd_grid_is_exact(self):
        vac = np.eye(10, dtype=complex)[0]
        g = grid(vac, half_width=3.5, n_points=101)
        assert g.axis[50] == 0
        assert abs(g.at_origin() - 2 / np.pi) <= 1e-10

    @pytest.mark.parametrize("n_points", [42, 82])
    def test_even_grid_has_no_origin(self, n_points):
        # the points nearest 0 are half a spacing off it
        vac = np.eye(10, dtype=complex)[0]
        g = grid(vac, n_points=n_points)
        with pytest.raises(ValueError, match="no axis point is 0"):
            g.at_origin()


class TestStack:
    """A sequence of states shares one recurrence; each grid is its own call's."""

    @pytest.mark.parametrize("n_states", range(1, 6))
    @pytest.mark.parametrize("dim", [8, 30])
    def test_each_grid_is_bitwise_its_own_call(self, dim, n_states):
        states = [random_state(dim, 100 * dim + k) for k in range(n_states)]
        grids = wigner.wigner(states, half_width=3.5, n_points=41)
        assert isinstance(grids, list) and len(grids) == n_states
        for psi, g in zip(states, grids):
            one = grid(psi, half_width=3.5, n_points=41)
            assert isinstance(one, wigner.WignerGrid)
            for field in ("axis", "values"):
                assert np.array_equal(getattr(g, field), getattr(one, field))

    def test_array_rows_are_the_states(self):
        states = [random_state(8, k) for k in range(3)]
        for a, b in zip(wigner.wigner(np.stack(states), n_points=41),
                        wigner.wigner(states, n_points=41)):
            assert np.array_equal(a.values, b.values)

    def test_mixed_dimensions_raise(self):
        # ragged states are refused, not padded
        with pytest.raises(DimensionMismatchError, match=r"\[\(8,\), \(9,\)\]"):
            wigner.wigner([random_state(8, 1), random_state(9, 2)], n_points=41)

    @pytest.mark.parametrize("states, shapes", [
        ([np.ones((2, 8))], r"\[\(2, 8\)\]"),  # a 2-d entry
        (np.ones(8), r"\[\(\)\]"),  # one state, not a sequence of them
    ], ids=["2d_entry", "one_state"])
    def test_non_vector_states_raise(self, states, shapes):
        with pytest.raises(DimensionMismatchError, match=shapes):
            wigner.wigner(states, n_points=41)


class TestClosedForm:
    """The Laguerre-series W against oracles that share none of its algebra."""

    @pytest.mark.parametrize("n", range(30))
    def test_fock_state_is_laguerre(self, n):
        # W of |n> is (2/pi) (-1)^n e^{-2|a|^2} L_n(4|a|^2)
        g = grid(np.eye(30, dtype=complex)[n], half_width=3.0, n_points=41)
        a2 = g.axis[None, :] ** 2 + g.axis[:, None] ** 2
        expected = (2 / np.pi) * (-1) ** n * np.exp(-2 * a2) * laguerre.lagval(4 * a2, np.eye(n + 1)[n])
        assert np.abs(g.values - expected).max() <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(
        dim=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        half_width=st.floats(0.5, 4.5),
        n_points=st.integers(41, 101),
    )
    def test_random_states_match_padded_reference(self, dim, seed, half_width, n_points):
        psi = random_state(dim, seed)
        g = grid(psi, half_width=half_width, n_points=n_points)
        assert np.abs(g.values).max() <= 2 / np.pi + 1e-12
        # the corners and cells spread over every quadrant, on odd grids and even
        idx = [0, n_points // 4, n_points // 2, (3 * n_points) // 4, n_points - 1]
        cells = [(i, j) for i in idx for j in idx]
        alphas = [g.axis[j] + 1j * g.axis[i] for i, j in cells]
        got = np.array([g.values[i, j] for i, j in cells])
        assert np.abs(got - reference_wigner(psi, alphas)).max() <= 1e-12

    def test_dim_100_wide_grid(self):
        psi = random_state(100, 7)
        g = grid(psi, half_width=10.0, n_points=41)
        assert np.isfinite(g.values).all()
        assert np.abs(g.values).max() <= 2 / np.pi + 1e-12
        cells = [(0, 0), (40, 40), (20, 20), (16, 12), (0, 20), (20, 40)]
        alphas = [g.axis[j] + 1j * g.axis[i] for i, j in cells]
        got = np.array([g.values[i, j] for i, j in cells])
        assert np.abs(got - reference_wigner(psi, alphas)).max() <= 1e-12
