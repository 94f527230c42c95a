import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_system
from knosim import dynamics, fock
from knosim.errors import InvalidDimensionError, TruncationError


def mean(psi, m):
    """<psi|M|psi> for a state and a matrix."""
    return np.vdot(psi, m @ psi)


def number(dim):
    """a^dag a from the ladder operator."""
    a = fock.annihilation(dim)
    return a.conj().T @ a


def fock_sum_number(alpha, dim):
    """Independent oracle: <a^dag a> = sum n |c_n|^2 from the explicit series."""
    c = [np.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n)) for n in range(dim)]
    norm = sum(abs(x) ** 2 for x in c)
    return sum(n * abs(x) ** 2 for n, x in enumerate(c)) / norm


def fock_sum_parity(alpha, dim):
    c = [np.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n)) for n in range(dim)]
    norm = sum(abs(x) ** 2 for x in c)
    return sum((-1) ** n * abs(x) ** 2 for n, x in enumerate(c)) / norm


class TestLadder:
    def test_annihilation_entries_dim3(self):
        m = fock.annihilation(3)
        expected = np.zeros((3, 3))
        expected[0, 1] = 1
        expected[1, 2] = np.sqrt(2)
        assert np.allclose(m, expected)

    def test_number_identity(self):
        a = fock.annihilation(3)
        prod = a.conj().T @ a
        assert np.allclose(prod, np.diag([0, 1, 2]))

    def test_commutator_corner(self):
        dim = 30
        a = fock.annihilation(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(dim)
        expected[-1, -1] = -(dim - 1)
        assert np.abs(comm - expected).max() <= 1e-12

    def test_invalid_dim(self):
        with pytest.raises(InvalidDimensionError):
            fock.annihilation(1)
        with pytest.raises(InvalidDimensionError):
            fock.coherent_amplitudes(0.5, 0)


class TestCoherent:
    def test_vacuum(self):
        psi, leak = fock.coherent_state(0.0, 10)
        assert abs(psi[0] - 1) < 1e-15
        assert leak == 0.0

    def test_cat_overlap(self):
        # <-a|a> = exp(-2|a|^2) = exp(-4) for a = sqrt(2)
        plus, _ = fock.coherent_state(np.sqrt(2), 30)
        minus, _ = fock.coherent_state(-np.sqrt(2), 30)
        assert abs(np.vdot(minus, plus).real - np.exp(-4)) < 1e-9

    def test_mean_photon_number(self):
        psi, _ = fock.coherent_state(np.sqrt(2), 30)
        val = mean(psi, number(30)).real
        assert abs(val - fock_sum_number(np.sqrt(2), 30)) < 1e-12
        assert abs(val - 2.0) < 1e-8

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            fock.coherent_state(3.0, 10)

    @settings(max_examples=30, deadline=None)
    @given(
        st.complex_numbers(max_magnitude=1.8, allow_nan=False, allow_infinity=False)
    )
    def test_eigenvector_of_annihilation(self, alpha):
        dim = 30
        psi, _ = fock.coherent_state(alpha, dim)
        resid = fock.annihilation(dim) @ psi - alpha * psi
        assert np.linalg.norm(resid) <= 1e-6


class TestParity:
    def test_dim2(self):
        assert np.allclose(np.exp(1j * np.pi * number(2).diagonal()), [1, -1])

    def test_squares_to_identity(self):
        p = np.diag(np.exp(1j * np.pi * number(17).diagonal()))
        assert np.allclose(p, np.diag((-1.0) ** np.arange(17)))
        assert np.allclose(p @ p, np.eye(17))

    def test_coherent_parity(self):
        psi, _ = fock.coherent_state(np.sqrt(2), 30)
        val = mean(psi, np.diag((-1.0) ** np.arange(30))).real
        assert abs(val - fock_sum_parity(np.sqrt(2), 30)) < 1e-12
        assert abs(val - np.exp(-4)) < 1e-6


class TestPropagation:
    """The engine's midpoint-exponential step, exact for a constant H."""

    def test_diagonal_phase(self):
        dim = 5
        omega = 2.7
        h = omega * np.diag(np.arange(dim)).astype(complex)
        psi = np.zeros(dim, dtype=complex)
        psi[1] = 1
        traj = dynamics.evolve(
            constant_system(h, tau=0.3), psi, n_steps=100, n_samples=2
        )
        assert abs(traj.final_state[1] - np.exp(-1j * omega * 0.3)) < 1e-12
        assert traj.converged and traj.refine_history[-1][1] < 1e-12

    def test_zero_hamiltonian(self):
        dim = 10
        psi, _ = fock.coherent_state(0.5, dim)
        traj = dynamics.evolve(
            constant_system(np.zeros((dim, dim)), tau=1.0), psi, n_steps=100, n_samples=2
        )
        assert np.abs(traj.final_state - psi).max() < 1e-12

    def test_semigroup(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        h = m + m.conj().T
        psi, _ = fock.coherent_state(1.0, 12)

        def step(state, tau):
            return dynamics.evolve(
                constant_system(h, tau), state, n_steps=100, n_samples=2
            ).final_state

        full = step(psi, 0.8)
        halves = step(step(psi, 0.4), 0.4)
        assert abs(np.vdot(halves, full)) ** 2 >= 1 - 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        psi, _ = fock.coherent_state(1.5, 20)
        traj = dynamics.evolve(
            constant_system(50 * (m + m.conj().T), tau=2.5), psi, n_steps=100, n_samples=11
        )
        assert np.abs(traj.norm - 1).max() <= 1e-9
        assert abs(np.linalg.norm(traj.final_state) - 1) <= 1e-9


class TestExpectation:
    def test_vacuum_number(self):
        psi, _ = fock.coherent_state(0.0, 8)
        assert mean(psi, number(8)) == 0.0

    def test_identity_unit(self):
        psi, _ = fock.coherent_state(1.1, 30)
        assert abs(mean(psi, np.eye(30)) - 1) < 1e-12

    def test_hermitian_returns_real(self):
        psi, _ = fock.coherent_state(0.7 + 0.2j, 20)
        assert abs(mean(psi, number(20)).imag) < 1e-15
