"""Exact small-system references: dense master-equation integration and
unrestricted full-Hilbert-space trajectory simulation.

These exist to validate the product-manifold engine and to measure the size
of the manifold approximation, not for speed: states and density matrices are
dense. State vectors are capped at 10 sites; the master equation, whose
superoperator is 4^n x 4^n (16 MB at 5 sites, 268 MB at 6), at 5.
:func:`oracle_report`, on 1, 2 or 4 sites, reads each engine's own path as
it runs and keeps no ensemble, so its memory is flat in the horizon.
A caller collects a one-row path with ``TrajectoryStream(path)`` and an
ensemble with ``zip(*path)``. Both engines read Bloch vectors by one rule.

Both engines are linear in their state between jumps, so each steps by a
matrix from one Horner polynomial (:func:`_taylor`): the full-space drift by
one classical RK4 step, and the master equation by its exact propagator
exp(L t), so that it has no time step.

Basis convention: basis index b encodes site i in bit (n-1-i), with bit value
0 meaning sigma^z = +1 (up). Site 0 is therefore the most significant bit,
matching the one Kronecker-product build in site order, :func:`_kron_sites`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .dynamics import (
    ModelParams,
    SamplePath,
    StepConfig,
    TrajectoryConfig,
    _unravel,
    batch_samples,
    initial_product_state,
    row_ensemble,
)
from .errors import ConfigError, NumericsError
from .lattice import LatticeGeometry, bonds, build_lattice
from .observables import ensemble_means
from .state import NORM2_FLOOR, NORM2_MAX

MAX_SITES = 10  # full-space state vectors and Hamiltonians
MAX_DENSE_SITES = 5  # dense master equation: a 4^n x 4^n superoperator
CHECK_INTERVAL = 1.0  # DenseLindblad.integrate applies exp(L t) to at most this t, then verifies rho

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _check_cap(n: int, cap: int = MAX_SITES) -> None:
    if n > cap:
        raise ConfigError(f"exact solvers are capped at {cap} sites, got {n}")


def _taylor(a: np.ndarray, degree: int) -> np.ndarray:
    """The Taylor polynomial 1 + a + a^2/2 + ... + a^degree/degree! of exp(a),
    by Horner's rule. At degree 4 and a = dt M it is one classical RK4 step of
    the linear equation dy/dt = M y (RK4's stability polynomial)."""
    eye = np.eye(len(a), dtype=a.dtype)
    out = eye + a / degree
    for c in range(degree - 1, 0, -1):
        out = eye + (a @ out) / c
    return out


def _exp(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 3 (2003)):
    the degree-18 Taylor polynomial, exact to e / 19! ~ 2e-17 at a 1-norm of 1,
    at a / 2^s for the least s that brings the norm there, squared s times."""
    norm = np.abs(a).sum(axis=0).max()
    s = max(0, math.ceil(math.log2(norm))) if norm > 0 else 0
    out = _taylor(a / 2**s, 18)
    for _ in range(s):
        out = out @ out
    return out


def _kron_sites(factors) -> np.ndarray:
    """The Kronecker product of one factor per site, in site order, so that
    site 0 is the most significant bit; spinors give a state vector, 2x2
    operators a matrix (np.kron of the one-element start returns the first)."""
    return reduce(np.kron, factors, np.ones(1, dtype=np.complex128))


def _embed(ops: dict[int, np.ndarray], n: int) -> np.ndarray:
    """ops[k] at each site k and the identity elsewhere."""
    return _kron_sites(ops.get(k, np.eye(2, dtype=np.complex128)) for k in range(n))


def build_hamiltonian(geometry: LatticeGeometry, p: ModelParams) -> np.ndarray:
    """Dense XYZ Hamiltonian over the de-duplicated nearest-neighbor bonds."""
    n = geometry.n_sites
    _check_cap(n)
    dim = 2**n
    h = np.zeros((dim, dim), dtype=np.complex128)
    for i, j in bonds(geometry):
        h += p.jx * _embed({i: SIGMA_X, j: SIGMA_X}, n)
        h += p.jy * _embed({i: SIGMA_Y, j: SIGMA_Y}, n)
        h += p.jz * _embed({i: SIGMA_Z, j: SIGMA_Z}, n)
    return h


def _site_masks(n: int) -> np.ndarray:
    """Bit mask selecting site i, shape (n,)."""
    return np.array([1 << (n - 1 - i) for i in range(n)], dtype=np.int64)


def _up_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(flip, up) index tables: flip[i] = b ^ mask_i and up[i, b] = site i is up."""
    dim = 2**n
    b = np.arange(dim, dtype=np.int64)
    masks = _site_masks(n)
    flip = b[None, :] ^ masks[:, None]
    up = (b[None, :] & masks[:, None]) == 0
    return flip, up


def product_state_vector(amps: np.ndarray) -> np.ndarray:
    """Full 2^n state vector of a site-factorized state."""
    return _kron_sites(amps)


def product_density(amps: np.ndarray) -> np.ndarray:
    """Density matrix |psi><psi| of a site-factorized pure state."""
    psi = product_state_vector(amps)
    return np.outer(psi, np.conj(psi))


def _bloch_rule(cross, prob: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Per-site Bloch vectors, (..., n, 3), by the one rule of both exact
    engines: ``cross(i)`` gives the (..., dim) terms that sum to
    <sigma_i^x>, conj(psi_b) psi_(b ^ mask_i) or rho[b ^ mask_i, b], and
    ``prob`` the (..., dim) basis populations."""
    out = np.empty(prob.shape[:-1] + (len(up), 3))
    for i in range(len(up)):
        terms = cross(i)
        # sigma^y couples with +i into the down component, -i into the up one
        out[..., i, 0] = terms.sum(axis=-1).real
        out[..., i, 1] = (np.where(up[i], -1.0j, 1.0j) * terms).sum(axis=-1).real
        out[..., i, 2] = (np.where(up[i], prob, -prob)).sum(axis=-1)
    return out


def pauli_expectations(psi: np.ndarray, n: int) -> np.ndarray:
    """Per-site Bloch vectors <sigma_i^alpha> of a state vector, (..., n, 3)."""
    flip, up = _up_tables(n)
    return _bloch_rule(lambda i: np.conj(psi) * psi[..., flip[i]], psi.real**2 + psi.imag**2, up)


def pair_xx_expectations(psi: np.ndarray, n: int) -> np.ndarray:
    """All <sigma_i^x sigma_j^x>, shape (..., n, n); the diagonal is 1."""
    flip, _ = _up_tables(n)
    flipped = psi[..., flip]  # (..., n, dim)
    gram = np.einsum("...id,...jd->...ij", np.conj(flipped), flipped)
    return np.ascontiguousarray(gram.real)  # a strided (rows, n, n) stack sums in another order than each matrix


def structure_factor_from_pairs(xx: np.ndarray) -> np.ndarray:
    """k = 0 structure factor from a pair-expectation matrix (distinct pairs),
    one per matrix of a (..., n, n) stack; 0 on one site, which has no pair."""
    n = xx.shape[-1]
    if n < 2:
        return np.zeros(xx.shape[:-2])
    return (xx.sum(axis=(-2, -1)) - np.trace(xx, axis1=-2, axis2=-1)) / (n * (n - 1))


# -- dense master equation -----------------------------------------------------

class DenseLindblad:
    """Dense Lindblad generator with sitewise decay at rate gamma.

    d rho / dt = -i [H, rho] + (gamma/2) sum_j (2 s_j^- rho s_j^+ - {n_j, rho})
    """

    def __init__(self, geometry: LatticeGeometry, p: ModelParams):
        _check_cap(geometry.n_sites, MAX_DENSE_SITES)
        self.n = geometry.n_sites
        self.p = p
        self.h = build_hamiltonian(geometry, p)
        self.flip, self.up = _up_tables(self.n)
        # total up-population on the diagonal; {n_j, rho} summed over sites
        # becomes (U_b + U_c) rho_bc
        self.up_count = self.up.sum(axis=0).astype(float)
        self._propagators: dict[float, np.ndarray] = {}

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        out = -1j * (self.h @ rho - rho @ self.h)
        g = self.p.gamma
        for i in range(self.n):
            down = ~self.up[i]
            feed = rho[np.ix_(self.flip[i], self.flip[i])]
            out += g * (feed * np.outer(down, down))
        out -= (0.5 * g) * (self.up_count[:, None] + self.up_count[None, :]) * rho
        return out

    @cached_property
    def _generator(self) -> np.ndarray:
        """The superoperator L of :meth:`rhs` on row-major vec(rho), one
        column per basis matrix, so that rhs stays the one statement of the
        physics."""
        dim = 2**self.n
        gen = np.empty((dim * dim, dim * dim), dtype=np.complex128)
        for j, basis in enumerate(np.eye(dim * dim, dtype=np.complex128)):
            gen[:, j] = self.rhs(basis.reshape(dim, dim)).ravel()
        return gen

    def integrate(self, rho: np.ndarray, t: float) -> np.ndarray:
        """rho after time t, by the exact propagator exp(L t) applied as one
        exp(L CHECK_INTERVAL) per whole interval plus one exp(L r) for the
        remainder r, each built once; density-matrix invariants are verified
        and restored (re-hermitized, trace-normalized) after each of them.
        A t of 0 or less returns rho."""
        if not math.isfinite(t):
            raise ConfigError(f"integration time must be finite, got {t:g}")
        rho = np.array(rho, dtype=np.complex128)
        full, rest = divmod(max(t, 0.0), CHECK_INTERVAL)
        for delta in [CHECK_INTERVAL] * int(full) + ([rest] if rest else []):
            if delta not in self._propagators:
                self._propagators[delta] = _exp(delta * self._generator)
            rho = self._verify_and_restore((self._propagators[delta] @ rho.ravel()).reshape(rho.shape))
        return rho

    def _verify_and_restore(self, rho: np.ndarray) -> np.ndarray:
        herm_dev = np.abs(rho - rho.conj().T).max()
        trace_dev = abs(rho.trace().real - 1.0) + abs(rho.trace().imag)
        if herm_dev > 1e-10 or trace_dev > 1e-10:
            raise NumericsError(f"density matrix invariants broken (herm {herm_dev:.2e}, trace {trace_dev:.2e})")
        rho = 0.5 * (rho + rho.conj().T)
        rho /= rho.trace().real
        min_eig = float(np.linalg.eigvalsh(rho)[0])
        if min_eig < -1e-8:
            raise NumericsError(f"density matrix lost positivity (min eigenvalue {min_eig:.2e})")
        return rho

    def site_bloch(self, rho: np.ndarray) -> np.ndarray:
        """Per-site Bloch vectors tr(rho sigma_i^alpha), shape (n, 3)."""
        idx = np.arange(2**self.n)
        # rho is hermitian: conj(rho[b, b ^ mask_i]) = rho[b ^ mask_i, b]
        return _bloch_rule(lambda i: np.conj(rho[idx, self.flip[i]]), rho[idx, idx].real, self.up)

    def pair_xx(self, rho: np.ndarray) -> np.ndarray:
        """All tr(rho sigma_i^x sigma_j^x), shape (n, n); the diagonal is 1."""
        idx = np.arange(2**self.n)
        masks = _site_masks(self.n)
        return rho[idx, idx ^ (masks[:, None] ^ masks)[..., None]].sum(axis=-1).real

    def path(self, traj: TrajectoryConfig, step: StepConfig) -> SamplePath:
        """The one-row :class:`gwmc.dynamics.SamplePath` of rho from the
        configured initial product state, on the trajectory engines'
        cadence, with no jumps; each sample observes (bloch, sxx, pair_xx),
        of shapes (1, n, 3), (1,) and (1, n, n), as ``FullWfmc.path`` does.
        Each step of the path integrates one whole sample interval exactly;
        dt sets only the sample grid."""

        def advance(rho, k):
            return self.integrate(rho, k * step.dt), np.zeros(1, dtype=np.int64)

        def observe(rho):
            xx = self.pair_xx(rho)[None]
            return self.site_bloch(rho)[None], structure_factor_from_pairs(xx), xx

        rho0 = product_density(initial_product_state(traj, self.n))
        return SamplePath(rho0, advance, observe, traj, step)


# -- full-Hilbert-space trajectories -------------------------------------------

class FullWfmc:
    """Unrestricted trajectory engine: exact non-Hermitian drift plus exact
    sitewise jump operators, stepped by the manifold engine's unraveling
    (:func:`gwmc.dynamics._unravel`)."""

    def __init__(self, geometry: LatticeGeometry, p: ModelParams):
        _check_cap(geometry.n_sites)
        self.n = geometry.n_sites
        self.p = p
        self.flip, self.up = _up_tables(self.n)
        self.up_sites = self.up.T.astype(float)  # (dim, n): population @ up_sites is each site's <n_up>
        h = build_hamiltonian(geometry, p)
        self.h_eff = h - 0.5j * p.gamma * np.diag(self.up_sites.sum(axis=1))
        self._drift_steps: dict[float, np.ndarray] = {}

    def _drift(self, psi: np.ndarray, dt: float) -> np.ndarray:
        """One RK4 step of the no-jump drift d psi/dt = -i h_eff psi, as a
        product with its propagator (cached per dt); not renormalized. One
        vector-matrix product per row: BLAS rounds a row of a matrix product
        otherwise, and a batch row must keep the bits of its solo trajectory."""
        if dt not in self._drift_steps:
            self._drift_steps[dt] = _taylor(-1j * dt * self.h_eff, 4).T
        return (psi[..., None, :] @ self._drift_steps[dt])[..., 0, :]

    def _renorm(self, psi: np.ndarray) -> np.ndarray:
        norm2 = (psi.real**2 + psi.imag**2).sum(axis=-1)
        # one min and one max, as in state.renormalize: a NaN fails both comparisons
        if not (norm2.min() >= NORM2_FLOOR and norm2.max() <= NORM2_MAX):
            raise NumericsError("state norm vanished or is not finite in full-space trajectory")
        return psi / np.sqrt(norm2)[..., None]

    def apply_jump(self, psi: np.ndarray, site: int) -> np.ndarray:
        return self._renorm(np.where(self.up[site], 0.0, psi[..., self.flip[site]]))

    def _collapse(self, psi: np.ndarray, jumped: np.ndarray) -> np.ndarray:
        psi = psi.copy()
        for site in range(self.n):
            rows = jumped[..., site]
            if rows.any():  # a 0-d mask gives one state vector an axis
                psi[rows] = self.apply_jump(psi[rows], site)
        return psi

    def advance(self, psi: np.ndarray, step: StepConfig,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One :func:`gwmc.dynamics._unravel` step on each site's <n_up>,
        the basis populations summed over the states where the site is up:
        the jumps in site order, then the whole state's drift."""
        return _unravel(psi, self.p.gamma, step, (psi.real**2 + psi.imag**2) @ self.up_sites, rng,
                        self._collapse, lambda x, _: self._renorm(self._drift(x, step.dt)))

    def path(self, traj: TrajectoryConfig, step: StepConfig, streams) -> SamplePath:
        """:func:`gwmc.dynamics.row_ensemble` from the configured initial
        product state, row k on Philox stream ``streams[k]``; each sample
        observes (bloch, sxx, pair_xx), of shapes (rows, n, 3), (rows,), (rows, n, n)."""
        rows = len(streams)

        def observe(x):
            xx = pair_xx_expectations(x, self.n).reshape(rows, self.n, self.n)
            return pauli_expectations(x, self.n).reshape(rows, self.n, 3), structure_factor_from_pairs(xx), xx

        psi = product_state_vector(initial_product_state(traj, self.n))
        return row_ensemble(psi, lambda x, rng: self.advance(x, step, rng), observe, traj, step, streams)


def single_spin_analytic(t, bloch0) -> np.ndarray:
    """Exact single-spin solution under pure decay:
    sx, sy decay at gamma/2 = 1/2, sz relaxes to -1 at rate gamma = 1.
    Times in units 1/gamma. Broadcasts over an array of times."""
    t = np.asarray(t, dtype=float)
    sx0, sy0, sz0 = (float(v) for v in bloch0)
    out = np.empty(t.shape + (3,))
    out[..., 0] = sx0 * np.exp(-0.5 * t)
    out[..., 1] = sy0 * np.exp(-0.5 * t)
    out[..., 2] = -1.0 + (1.0 + sz0) * np.exp(-t)
    return out


# -- consistency report --------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


@dataclass
class OracleReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(f"{status} {c.name} measured={c.measured:.6g} tol={c.tolerance:.6g} {c.detail}".rstrip())
        return out


_GEOMETRY_FOR_SITES = {1: (1, 1), 2: (2, 1), 4: (2, 2)}
_CHECKPOINTS = (1.0, 2.0, 5.0, 10.0)


def oracle_report(
    n_sites: int,
    p: ModelParams,
    t_total: float = 10.0,
    n_traj: int = 4000,
    seed: int = 7,
    dt: float = 0.01,
) -> OracleReport:
    """Run the oracle consistency checks and return pass/fail per invariant.

    Checks: the analytic single-spin solution against the dense path,
    full-space trajectory-ensemble averages against it at checkpoint times
    (3 standard errors), the XXZ all-down steady state, and for n >= 2 that
    the manifold engine shows a finite, resolvable approximation residual
    against it (a manifold engine that exactly reproduces the full dynamics
    for generic couplings would be wrong). Each engine's path is read as it
    runs, one sample per 1/gamma, and no ensemble is kept. The single-spin
    and dark-state checks are stated in units of 1/gamma, so gamma > 0.
    """
    if n_sites not in _GEOMETRY_FOR_SITES:
        raise ConfigError(f"oracle check supports site counts {sorted(_GEOMETRY_FOR_SITES)}, got {n_sites}")
    if n_traj < 2:
        raise ConfigError(f"oracle check needs at least 2 trajectories for its standard errors, got {n_traj}")
    if not p.gamma > 0:  # no decay: no dark state, and trajectories with no spread
        raise ConfigError(f"oracle check needs gamma > 0, got {p.gamma:g}")
    if t_total < _CHECKPOINTS[0]:
        raise ConfigError(f"oracle check needs t_total of at least {_CHECKPOINTS[0]:g}, "
                          f"its first checkpoint, got {t_total:g}")
    geometry = build_lattice(*_GEOMETRY_FOR_SITES[n_sites])
    traj = TrajectoryConfig(t_total=t_total, sample_interval=1.0, seed=seed)
    step = StepConfig(dt=dt)
    checks: list[CheckResult] = []

    # 1. dense path vs closed-form single spin; sample j is at t = j
    one = DenseLindblad(build_lattice(1, 1), p).path(replace(traj, t_total=5.0), step)
    dev = max(float(np.abs(bloch[0, 0] - single_spin_analytic(p.gamma * j, (1, 0, 0))).max())
              for j, (_, (bloch, *_), _) in enumerate(one) if j in (1, 2, 5))  # at the dimensionless time
    checks.append(CheckResult("single_spin_analytic", dev <= 1e-6, dev, 1e-6))

    # 2. unraveling exactness at checkpoint times. The full-space path stops at the last
    # checkpoint, the last time it is read; first in the zip, it ends the zip before the dense path moves on.
    checkpoints = [t for t in _CHECKPOINTS if t <= t_total + 1e-9]
    full = FullWfmc(geometry, p).path(replace(traj, t_total=checkpoints[-1]), step, range(n_traj))
    dense = iter(DenseLindblad(geometry, p).path(traj, step))
    worst, ok = 0.0, True
    for j, ((_, (f_bloch, _, f_xx), _), (_, (bloch, _, xx), _)) in enumerate(zip(full, dense)):
        if j not in checkpoints:
            continue
        # per-trajectory <sigma_1^x>, and <sigma_1^x sigma_2^x> on two or more sites
        observables = [(f_bloch[:, 0, 0], bloch[0, 0, 0])]
        if n_sites >= 2:
            observables.append((f_xx[:, 0, 1], xx[0, 0, 1]))
        for vals, exact in observables:
            mean, se = ensemble_means(vals)
            lhs = abs(mean - exact)
            ok &= lhs <= 3.0 * se + 1e-12
            worst = max(worst, lhs / max(se, 1e-300))
    del full  # its stream block and states go before the manifold ensemble runs
    checks.append(CheckResult("unraveling_exactness", ok, worst, 3.0, "max |dev|/SE over checkpoints"))

    # 3. XXZ exact steady state: all spins down
    sys_xxz = DenseLindblad(geometry, ModelParams(jx=p.jx, jy=p.jx, jz=p.jz, gamma=p.gamma))
    rho_ss = sys_xxz.integrate(product_density(initial_product_state(traj, n_sites)), 40.0 / p.gamma)
    dark_dev = float(np.abs(sys_xxz.site_bloch(rho_ss) - np.array([0.0, 0.0, -1.0])).max())
    checks.append(CheckResult("xxz_dark_state", dark_dev <= 1e-4, dark_dev, 1e-4))

    # 4. manifold approximation residual (recorded; must not vanish for n >= 2).
    # Measured at the end of the run, where the gap has accumulated, on the
    # streams after the full-space ensemble's, so that no stream feeds two rows.
    if n_sites >= 2:
        for _, (_, _, xx), _ in dense:  # from the last checkpoint on to the last sample
            pass
        manifold = batch_samples(geometry, [p] * n_traj, traj, step, range(n_traj, 2 * n_traj))
        t, (g_bloch, _), _ = deque(manifold, maxlen=1).pop()  # its last sample alone
        mean, se = ensemble_means(g_bloch[:, 0, 0] * g_bloch[:, 1, 0])
        residual = abs(mean - xx[0, 0, 1])
        checks.append(CheckResult("manifold_residual_resolved", residual > 3.0 * se, residual, 3.0 * se,
                                  f"|<xx>_manifold - <xx>_exact| at t={t:g}"))
    return OracleReport(checks)
