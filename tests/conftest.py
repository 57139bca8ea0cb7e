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


# (t_total, sample_interval, dt, burn_in, kept samples) at the burn-in
# boundary, where the time of a sample is a float product; kept is None
# where only the agreement of the engines with cadence is checked
CADENCE_CASES = [
    (0.2, 0.01, 0.01, 0.07, 14),  # 0.07 / 0.01 rounds up past 7: a plain ceiling keeps 13
    (0.6, 0.03, 0.03, 0.33, 9),  # 11 * 0.03 = 0.32999999999999996 is burn-in
    (10.0, 1.0, 0.01, 0.0, 11), (10.5, 1.0, 0.01, 9.5, 1), (10.5, 1.0, 0.01, 10.2, 0),
    (2.0, 0.3, 0.01, 0.9, None), (3.0, 0.7, 0.05, 1.4, None),
]
