import numpy as np
import pytest

from conftest import random_product_state
from gwmc.errors import NumericsError
from gwmc.state import (
    bloch_vectors,
    down_state,
    is_dark,
    load_state_csv,
    plus_x_state,
    renormalize,
    save_state_csv,
    z2_flip,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def norms(amps: np.ndarray) -> np.ndarray:
    """Per-spinor norms, shape (...,)."""
    return np.sqrt(np.abs(amps[..., 0]) ** 2 + np.abs(amps[..., 1]) ** 2)


class TestBloch:
    def test_pauli_eigenstates(self):
        assert np.allclose(bloch_vectors(np.array([1.0, 0.0j])), [0, 0, 1])
        assert np.allclose(bloch_vectors(np.array([INV_SQRT2, INV_SQRT2 + 0j])), [1, 0, 0])
        assert np.allclose(bloch_vectors(np.array([INV_SQRT2, 1j * INV_SQRT2])), [0, 1, 0])

    def test_unit_length(self, rng):
        amps = random_product_state(rng, 100)
        b = bloch_vectors(amps)
        assert np.allclose((b**2).sum(axis=1), 1.0, atol=1e-9)

    def test_scale_invariance(self, rng):
        amps = random_product_state(rng, 100)
        scales = rng.normal(size=(100, 1)) + 1j * rng.normal(size=(100, 1))
        scales[np.abs(scales) < 0.1] = 0.5
        scaled = amps * scales
        assert np.allclose(bloch_vectors(scaled), bloch_vectors(renormalize(scaled)), atol=1e-12)
        assert np.allclose(bloch_vectors(scaled), bloch_vectors(amps), atol=1e-12)


class TestInitStates:
    def test_plus_x_magnetization(self):
        b = bloch_vectors(plus_x_state(16))
        assert np.allclose(b.mean(axis=0), [1, 0, 0], atol=1e-14)

    def test_single_site(self):
        assert np.allclose(bloch_vectors(plus_x_state(1))[0], [1, 0, 0])

    def test_minus_x_variant(self):
        b = bloch_vectors(plus_x_state(4, sign=-1))
        assert np.allclose(b.mean(axis=0), [-1, 0, 0], atol=1e-14)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            plus_x_state(0)
        with pytest.raises(ValueError):
            plus_x_state(3, sign=2)


class TestZ2Flip:
    def test_plus_to_minus(self):
        assert np.allclose(bloch_vectors(z2_flip(plus_x_state(5))).mean(axis=0), [-1, 0, 0])

    def test_down_state_invariant(self):
        d = down_state(4)
        assert np.allclose(bloch_vectors(z2_flip(d)), bloch_vectors(d))

    def test_bloch_identity(self, rng):
        amps = random_product_state(rng, 100)
        b = bloch_vectors(amps)
        flipped = bloch_vectors(z2_flip(amps))
        assert np.array_equal(flipped[:, 0], -b[:, 0])
        assert np.array_equal(flipped[:, 1], -b[:, 1])
        assert np.array_equal(flipped[:, 2], b[:, 2])

    def test_involution_exact(self, rng):
        amps = random_product_state(rng, 100)
        assert np.array_equal(bloch_vectors(z2_flip(z2_flip(amps))), bloch_vectors(amps))


class TestRenormalize:
    def test_rescales(self):
        out = renormalize(np.array([2.0, 0.0j]))
        assert np.allclose(out, [1.0, 0.0])

    def test_unit_unchanged(self):
        s = np.array([0.6, 0.8j])
        assert np.allclose(renormalize(s), s, atol=1e-15)

    def test_zero_norm_raises(self):
        with pytest.raises(NumericsError):
            renormalize(np.array([0.0j, 0.0j]))

    def test_batch_norms(self, rng):
        amps = 3.7 * random_product_state(rng, 50)
        assert np.allclose(norms(renormalize(amps)), 1.0, atol=1e-14)


class TestDarkDetection:
    def test_down_is_dark(self):
        assert is_dark(bloch_vectors(down_state(9)))

    def test_up_is_not_dark(self):
        up = np.zeros((4, 2), dtype=complex)
        up[:, 0] = 1.0
        assert not is_dark(bloch_vectors(up))

    def test_plus_x_not_dark(self):
        assert not is_dark(bloch_vectors(plus_x_state(4)))


class TestSnapshotCsv:
    def test_roundtrip(self, rng, tmp_path):
        amps = random_product_state(rng, 12)
        path = tmp_path / "state.csv"
        save_state_csv(path, amps)
        loaded = load_state_csv(path)
        assert np.array_equal(loaded, amps)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,Mx\n0,1\n")
        with pytest.raises(ValueError):
            load_state_csv(path)
