import numpy as np
import pytest

from gwmc.oracle import FullWfmc


@pytest.fixture
def corrupt_jumps(monkeypatch):
    """Break the full-space jump operator: it flips the site without
    annihilating, so a down site is raised instead of left alone."""

    def flip_only(self, psi, site):
        return self._renorm(psi[..., self.flip[site]])

    monkeypatch.setattr(FullWfmc, "apply_jump", flip_only)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_product_state(rng, n_sites):
    """Uniformly random normalized spinors, one per site."""
    amps = rng.normal(size=(n_sites, 2)) + 1j * rng.normal(size=(n_sites, 2))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)
