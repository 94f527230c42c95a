import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sta_params
from knosim import fock, logical, model, twolevel
from knosim.errors import IllConditionedBasisError

ALPHA0 = np.sqrt(2)
DIM = 30


@pytest.fixture(scope="module")
def frame():
    return logical.build_frame(ALPHA0, DIM)


def dyad(ket, bra):
    """|ket><bra| of two kets."""
    return np.outer(ket, bra.conj())


def frame_operators(frame):
    """(sx, sy, sz, projector) of a frame as dyads of its kets, written here
    apart from logical.py."""
    k0, k1 = frame.ket0, frame.ket1
    return (
        dyad(k0, k1) + dyad(k1, k0),
        -1j * dyad(k0, k1) + 1j * dyad(k1, k0),
        dyad(k0, k0) - dyad(k1, k1),
        dyad(k0, k0) + dyad(k1, k1),
    )


@pytest.fixture(scope="module")
def ops(frame):
    """sx, sy, sz, projector; sy is logical.sigma_y, the others inline dyads."""
    sx, _, sz, proj = frame_operators(frame)
    return sx, logical.sigma_y(frame, 0.0), sz, proj


class TestBuildFrame:
    def test_lowdin_orthogonal(self, frame):
        plus, _ = fock.coherent_state(ALPHA0, DIM)
        minus, _ = fock.coherent_state(-ALPHA0, DIM)
        assert abs(np.vdot(plus, minus) - np.exp(-4)) < 1e-9
        assert abs(np.vdot(frame.ket0, frame.ket1)) < 1e-12

    def test_sigma_z_action(self, frame, ops):
        sz = ops[2]
        assert np.abs(sz @ frame.ket0 - frame.ket0).max() < 1e-10
        assert np.abs(sz @ frame.ket1 + frame.ket1).max() < 1e-10

    def test_projector_rank_two(self, ops):
        assert abs(np.trace(ops[3]).real - 2) < 1e-10

    def test_projector_idempotent(self, ops):
        p = ops[3]
        assert np.abs(p @ p - p).max() < 1e-10

    def test_pauli_squares(self, ops):
        p = ops[3]
        for op in ops[:3]:
            assert np.abs(op @ op - p).max() < 1e-10

    def test_pauli_product_cycle(self, ops):
        sx, sy, sz, _ = ops
        assert np.abs(sx @ sy - 1j * sz).max() < 1e-10
        assert np.abs(sy @ sz - 1j * sx).max() < 1e-10
        assert np.abs(sz @ sx - 1j * sy).max() < 1e-10

    def test_pauli_algebra(self, ops):
        proj = ops[3]
        for i in range(3):
            for j in range(3):
                anti = ops[i] @ ops[j] + ops[j] @ ops[i]
                target = 2 * proj if i == j else np.zeros_like(proj)
                assert np.abs(anti - target).max() < 1e-10

    def test_lowdin_close_to_coherent(self, frame):
        plus, _ = fock.coherent_state(ALPHA0, DIM)
        assert abs(np.vdot(frame.ket0, plus)) ** 2 >= 1 - np.exp(-4 * ALPHA0**2)

    def test_sign_flip_swaps_kets(self):
        f1 = logical.build_frame(ALPHA0, DIM)
        f2 = logical.build_frame(-ALPHA0, DIM)
        assert abs(np.vdot(f1.ket0, f2.ket1)) ** 2 >= 1 - 1e-12
        assert abs(np.vdot(f1.ket1, f2.ket0)) ** 2 >= 1 - 1e-12

    def test_ill_conditioned(self):
        with pytest.raises(IllConditionedBasisError):
            logical.build_frame(0.3, 30)


def bloch(psi, frame):
    """(sx, sy, sz, pop) of one state, by logical.bloch."""
    return list(logical.bloch(frame, psi))


class TestBlochVector:
    def test_ket0(self, frame):
        s = bloch(frame.ket0, frame)
        assert np.allclose(s, [0, 0, 1, 1], atol=1e-10)

    def test_plus_state(self, frame):
        plus = (frame.ket0 + frame.ket1) / np.sqrt(2)
        s = bloch(plus, frame)
        assert np.allclose(s, [1, 0, 0, 1], atol=1e-10)

    def test_raw_coherent_state(self, frame):
        psi, _ = fock.coherent_state(ALPHA0, DIM)
        s = bloch(psi, frame)
        assert abs(s[2] - 1) < 5e-3
        assert s[3] >= 0.999

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bloch_length_equals_population(self, seed):
        frame = logical.build_frame(ALPHA0, DIM)
        rng = np.random.default_rng(seed)
        amp = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
        psi = amp / np.linalg.norm(amp)
        sx, sy, sz, pop = bloch(psi, frame)
        assert abs(sx**2 + sy**2 + sz**2 - pop**2) < 1e-9


class TestLeakage:
    """Leakage is 1 - <psi|Ibar|psi>, the weight outside the cat subspace."""

    def test_ket0_no_leakage(self, frame):
        assert abs(1 - bloch(frame.ket0, frame)[3]) < 1e-10

    def test_fock5_leaks(self, frame):
        # oracle: overlap of |n=5> with the cat subspace by direct Fock sums
        amp = np.zeros(DIM, dtype=complex)
        amp[5] = 1
        inside = abs(np.vdot(frame.ket0, amp)) ** 2 + abs(np.vdot(frame.ket1, amp)) ** 2
        leak = 1 - bloch(amp, frame)[3]
        assert abs(leak - (1 - inside)) < 1e-12
        assert leak >= 0.5

    def test_leakage_plus_pop_is_one(self, frame):
        rng = np.random.default_rng(11)
        amp = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
        psi = amp / np.linalg.norm(amp)
        outside = psi - frame_operators(frame)[3] @ psi
        assert abs(np.linalg.norm(outside) ** 2 + bloch(psi, frame)[3] - 1) < 1e-12


@pytest.fixture(scope="module")
def reduced_frames():
    """The frames of the 8-level drive_set basis and of the 2x2 reduction."""
    p = sta_params(chi=0.3)
    ds = model.drive_set(p)
    assert ds.basis_dim == 8
    return {"drive_set": ds.frame, "twolevel": twolevel.system(p).frame}


class TestReadout:
    """logical.bloch and logical.sigma_y against the four dyads of the kets."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["drive_set", "twolevel"]), st.integers(0, 2**32 - 1))
    def test_bloch_is_the_dyad_expectations(self, reduced_frames, system, seed):
        frame = reduced_frames[system]
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(5, frame.ket0.size)) + 1j * rng.normal(size=(5, frame.ket0.size))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        got = logical.bloch(frame, psi)
        assert got.shape == (4, 5)
        want = [np.einsum("ki,ij,kj->k", psi.conj(), op, psi).real
                for op in frame_operators(frame)]
        assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("system", ["drive_set", "twolevel"])
    def test_sigma_y_is_the_dyads(self, reduced_frames, system):
        # sy_bar turned to azimuth phi: -sin phi sx_bar + cos phi sy_bar
        frame = reduced_frames[system]
        sx, sy = frame_operators(frame)[:2]
        for phi in (0.0, 0.5, np.pi / 2, np.pi, -2.0):
            want = -np.sin(phi) * sx + np.cos(phi) * sy
            assert np.abs(logical.sigma_y(frame, phi) - want).max() <= 1e-15
