import numpy as np
import pytest

from conftest import down_state, random_product_state, z2_flip
from gwmc.errors import NumericsError
from gwmc.state import (
    bloch_vectors,
    is_dark,
    load_state_csv,
    plus_x_state,
    renormalize,
    save_state_csv,
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

    def test_bits_of_the_complex_divide(self, rng):
        # the rescale is the complex-by-real divide: multiplying the real
        # parts by 1 / sqrt(norm2) instead keeps -0 where the divide gives +0
        amps = rng.uniform(0.5, 2.0) * random_product_state(rng, 400).reshape(20, 20, 2)
        parts = amps.view(np.float64).reshape(-1, 4)
        zero = rng.random(parts.shape) < 0.3
        zero[zero.all(axis=1)] = False  # keep every spinor's norm
        parts[zero] = np.where(rng.random(parts.shape) < 0.5, 0.0, -0.0)[zero]
        amps[0, 0] = (-0.0 + 0.5j, 0.5)
        norm2 = (amps[..., 0].real**2 + amps[..., 0].imag**2) + (amps[..., 1].real**2 + amps[..., 1].imag**2)
        out = renormalize(amps)
        assert out.tobytes() == (amps / np.sqrt(norm2)[..., None]).tobytes()
        assert not np.signbit(out[0, 0, 0].real)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0], ids=["nan", "inf", "-inf", "zero-norm"])
    def test_non_finite_or_vanished_norm_raises(self, rng, bad):
        amps = random_product_state(rng, 12).reshape(3, 4, 2)
        if bad == 0.0:
            amps[1, 2] = 0.0
        else:
            amps.view(np.float64)[1, 2, 3] = bad
        with pytest.raises(NumericsError):
            renormalize(amps)


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
