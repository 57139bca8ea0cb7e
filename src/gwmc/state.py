"""Site-factorized spin-1/2 states stored as complex amplitude arrays.

A product state over n sites is an array of shape (n, 2), complex128:
column 0 holds the sigma^z = +1 (up) amplitude, column 1 the sigma^z = -1
(down) amplitude. All functions broadcast over leading batch dimensions, so
an ensemble of m trajectories is simply an (m, n, 2) array. Per-site global
phases are physically irrelevant; state comparisons go through Bloch vectors.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import ConfigError, NumericsError

# squared-norm floor below which a spinor is considered numerically destroyed
NORM2_FLOOR = 1e-24
NORM2_MAX = np.finfo(np.float64).max  # above it the norm is infinite


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def bloch_vectors(amps: np.ndarray) -> np.ndarray:
    """Pauli expectation values (sx, sy, sz) for each spinor, shape (..., 3).

    Normalization is built in (expectations divide by the squared norm), so
    the result is scale invariant and safe on mid-step unnormalized stages.
    """
    u = amps[..., 0]
    d = amps[..., 1]
    uu = _abs2(u)
    dd = _abs2(d)
    cross = np.conj(u) * d
    inv = 1.0 / (uu + dd)
    out = np.empty(amps.shape[:-1] + (3,))
    out[..., 0] = 2.0 * cross.real * inv
    out[..., 1] = 2.0 * cross.imag * inv
    out[..., 2] = (uu - dd) * inv
    return out


def plus_x_state(n_sites: int, sign: int = +1) -> np.ndarray:
    """All spins aligned with the +x (sign=+1) or -x (sign=-1) direction."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    amps = np.empty((n_sites, 2), dtype=np.complex128)
    amps[:, 0] = 1.0 / np.sqrt(2.0)
    amps[:, 1] = sign / np.sqrt(2.0)
    return amps


def renormalize(amps: np.ndarray) -> np.ndarray:
    """Rescale every spinor to unit norm; direction (and phase) preserved.

    Raises NumericsError if any spinor norm has collapsed, which signals an
    oversized time step or a jump applied to an already-down site.
    """
    norm2 = _abs2(amps[..., 0]) + _abs2(amps[..., 1])
    # one min and one max: a NaN fails both comparisons
    if not (norm2.min() >= NORM2_FLOOR and norm2.max() <= NORM2_MAX):
        raise NumericsError("spinor norm vanished; reduce dt or inspect jump handling")
    return amps / np.sqrt(norm2)[..., None]


DARK_TOL = 1e-12


def is_dark(bloch: np.ndarray):
    """True when every site is in the down state to within DARK_TOL; for a
    batch of shape (..., n_sites, 3), one answer per state.

    Checks both transverse components and sz, so transverse-free states that
    still carry up-population (which keep evolving) are not misflagged.
    """
    transverse = (np.abs(bloch[..., 0]) < DARK_TOL) & (np.abs(bloch[..., 1]) < DARK_TOL)
    down = transverse & (bloch[..., 2] < -1.0 + DARK_TOL)
    return down.all(axis=-1)


_SNAPSHOT_HEADER = ["site_index", "re_up", "im_up", "re_down", "im_down"]


def save_state_csv(path, amps: np.ndarray) -> None:
    """Write a snapshot with rows: site_index, re_up, im_up, re_down, im_down."""
    amps = np.asarray(amps)
    if amps.ndim != 2 or amps.shape[1] != 2:
        raise ValueError("expected a single (n_sites, 2) state")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SNAPSHOT_HEADER)
        for i, (u, d) in enumerate(amps):
            writer.writerow(
                [i, f"{u.real:.17g}", f"{u.imag:.17g}", f"{d.real:.17g}", f"{d.imag:.17g}"]
            )


def load_state_csv(path) -> np.ndarray:
    """Read a snapshot written by :func:`save_state_csv`.

    Raises ConfigError for a missing or malformed file, for site indices
    other than 0..n-1 each once, and for a spinor that is not finite or has
    no norm.
    """
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as err:
        raise ConfigError(f"cannot read state snapshot {path}: {err.strerror}") from None
    if len(rows) < 2 or rows[0] != _SNAPSHOT_HEADER:
        raise ConfigError(f"not a state snapshot (the header, then a row per site): {path}")
    rows = rows[1:]
    if any(len(r) != len(_SNAPSHOT_HEADER) for r in rows):
        raise ConfigError(f"state snapshot {path}: every row needs {len(_SNAPSHOT_HEADER)} fields")
    try:
        sites = [int(r[0]) for r in rows]
        parts = np.array([[float(v) for v in r[1:]] for r in rows])
    except ValueError as err:
        raise ConfigError(f"malformed state snapshot {path}: {err}") from None
    if sorted(sites) != list(range(len(rows))):
        raise ConfigError(f"state snapshot {path} must list sites 0..{len(rows) - 1}, each once")
    # (re_up, im_up, re_down, im_down) rows are (n, 2) complex pairs in memory
    amps = parts.view(np.complex128)[np.argsort(sites)]
    norm2 = _abs2(amps).sum(axis=-1)
    if not np.all(np.isfinite(norm2) & (norm2 >= NORM2_FLOOR)):
        raise ConfigError(f"state snapshot {path} holds a spinor that is not finite or has no norm")
    return amps
