import numpy as np
import pytest

from gwmc.dynamics import StepConfig, TrajectoryResult, TrajectoryStream, batch_samples
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


def down_state(n_sites):
    """All spins in the sigma^z = -1 state (the artificial dark state)."""
    amps = np.zeros((n_sites, 2), dtype=np.complex128)
    amps[:, 1] = 1.0
    return amps


def z2_flip(amps):
    """Apply sigma^z per site: (sx, sy, sz) -> (-sx, -sy, sz) in Bloch terms."""
    out = amps.copy()
    out[..., 1] = -out[..., 1]
    return out


def site_operator(op, i, n):
    """op at site i of an n-site system and the identity elsewhere, one
    Kronecker product in site order (site 0 is the most significant bit)."""
    out = np.array([[1.0]], dtype=np.complex128)
    for k in range(n):
        out = np.kron(out, op if k == i else np.eye(2, dtype=np.complex128))
    return out


def run_ensemble(geometry, p, traj, step, n_traj, stream=0):
    """(times, bloch) of n_traj manifold trajectories, bloch of shape
    (n_times, n_traj, n_sites, 3); row k is ``run_trajectory(..., stream=stream + k)``."""
    times, observed, _ = zip(*batch_samples(geometry, [p] * n_traj, traj, step, range(stream, stream + n_traj)))
    return np.asarray(times), np.asarray([bloch for bloch, _ in observed])


def full_wfmc_trajectory(geometry, p, traj, step=StepConfig(), stream=0):
    """One full-space trajectory on the manifold engine's cadence, as a TrajectoryResult."""
    samples = TrajectoryStream(FullWfmc(geometry, p).path(traj, step, [stream]))
    return TrajectoryResult(list(samples), None, samples.finish())


def full_wfmc_ensemble(geometry, p, traj, step, n_traj, stream=0):
    """(times, bloch, pair_xx) of n_traj full-space trajectories, of shapes
    (T,), (T, n_traj, n, 3) and (T, n_traj, n, n); row k is
    ``full_wfmc_trajectory(..., stream=stream + k)``."""
    times, observed, _ = zip(*FullWfmc(geometry, p).path(traj, step, range(stream, stream + n_traj)))
    blochs, _, pairs = zip(*observed)
    return np.asarray(times), np.asarray(blochs), np.asarray(pairs)


# (t_total, sample_interval, dt, burn_in, kept samples) at the burn-in
# boundary, where the time of a sample is a float product; kept is None
# where only the agreement of the engines with cadence is checked
CADENCE_CASES = [
    (0.2, 0.01, 0.01, 0.07, 14),  # 0.07 / 0.01 rounds up past 7: a plain ceiling keeps 13
    (0.6, 0.03, 0.03, 0.33, 9),  # 11 * 0.03 = 0.32999999999999996 is burn-in
    (10.0, 1.0, 0.01, 0.0, 11), (10.5, 1.0, 0.01, 9.5, 1), (10.5, 1.0, 0.01, 10.2, 0),
    (2.0, 0.3, 0.01, 0.9, None), (3.0, 0.7, 0.05, 1.4, None),
]
