"""Exact small-system references: dense master-equation integration and
unrestricted full-Hilbert-space trajectory simulation.

These exist to validate the product-manifold engine and to measure the size
of the manifold approximation, not for speed: states and density matrices are
dense. State vectors are capped at 10 sites; the master equation, whose
superoperator is 4^n x 4^n (16 MB at 5 sites, 268 MB at 6), at 5. Tests
typically use 1, 2, or 4.

Both engines are linear in their state between jumps, so one classical RK4
step is a matrix: the RK4 stability polynomial of the generator times dt.
They apply that matrix (or a power of it) instead of four derivative stages.

Basis convention: basis index b encodes site i in bit (n-1-i), with bit value
0 meaning sigma^z = +1 (up). Site 0 is therefore the most significant bit,
matching a Kronecker-product build in site order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dynamics import (
    MAX_JUMP_PROB,
    ModelParams,
    SamplePath,
    StepConfig,
    TrajectoryConfig,
    TrajectoryResult,
    TrajectoryStream,
    initial_product_state,
    row_ensemble,
    run_ensemble,
    whole_steps,
)
from .errors import ConfigError, NumericsError
from .lattice import LatticeGeometry, bonds, build_lattice
from .observables import Sample
from .state import NORM2_FLOOR, NORM2_MAX, plus_x_state

MAX_SITES = 10  # full-space state vectors and Hamiltonians
MAX_DENSE_SITES = 5  # dense master equation: a 4^n x 4^n superoperator
CHECK_INTERVAL = 1.0  # DenseLindblad.integrate verifies rho at least this often

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _check_cap(n: int, cap: int = MAX_SITES) -> None:
    if n > cap:
        raise ConfigError(f"exact solvers are capped at {cap} sites, got {n}")


def _rk4_propagator(a: np.ndarray) -> np.ndarray:
    """One classical RK4 step of the linear equation dy/dt = M y as a matrix:
    the RK4 stability polynomial 1 + a + a^2/2 + a^3/6 + a^4/24 at a = dt M,
    by Horner's rule."""
    eye = np.eye(len(a), dtype=a.dtype)
    out = eye + a / 4.0
    for c in (3.0, 2.0, 1.0):
        out = eye + (a @ out) / c
    return out


def site_operator(op: np.ndarray, i: int, n: int) -> np.ndarray:
    """Embed a single-site operator at site i of an n-site system."""
    out = np.array([[1.0]], dtype=np.complex128)
    for k in range(n):
        out = np.kron(out, op if k == i else np.eye(2, dtype=np.complex128))
    return out


def build_hamiltonian(geometry: LatticeGeometry, p: ModelParams) -> np.ndarray:
    """Dense XYZ Hamiltonian over the de-duplicated nearest-neighbor bonds."""
    n = geometry.n_sites
    _check_cap(n)
    dim = 2**n
    h = np.zeros((dim, dim), dtype=np.complex128)
    for i, j in bonds(geometry):
        h += p.jx * site_operator(SIGMA_X, i, n) @ site_operator(SIGMA_X, j, n)
        h += p.jy * site_operator(SIGMA_Y, i, n) @ site_operator(SIGMA_Y, j, n)
        h += p.jz * site_operator(SIGMA_Z, i, n) @ site_operator(SIGMA_Z, j, n)
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
    psi = np.array([1.0], dtype=np.complex128)
    for row in amps:
        psi = np.kron(psi, row)
    return psi


def product_density(amps: np.ndarray) -> np.ndarray:
    """Density matrix |psi><psi| of a site-factorized pure state."""
    psi = product_state_vector(amps)
    return np.outer(psi, np.conj(psi))


def pauli_expectations(psi: np.ndarray, n: int) -> np.ndarray:
    """Per-site Bloch vectors <sigma_i^alpha> of a state vector, (..., n, 3)."""
    flip, up = _up_tables(n)
    prob = psi.real**2 + psi.imag**2
    out = np.empty(psi.shape[:-1] + (n, 3))
    for i in range(n):
        cross = np.conj(psi) * psi[..., flip[i]]
        # sigma^y couples with +i into the down component, -i into the up one
        out[..., i, 0] = cross.sum(axis=-1).real
        out[..., i, 1] = (np.where(up[i], -1.0j, 1.0j) * cross).sum(axis=-1).real
        out[..., i, 2] = (np.where(up[i], prob, -prob)).sum(axis=-1)
    return out


def pair_xx_expectations(psi: np.ndarray, n: int) -> np.ndarray:
    """All <sigma_i^x sigma_j^x>, shape (..., n, n); the diagonal is 1."""
    flip, _ = _up_tables(n)
    flipped = psi[..., flip]  # (..., n, dim)
    gram = np.einsum("...id,...jd->...ij", np.conj(flipped), flipped)
    return gram.real


def structure_factor_from_pairs(xx: np.ndarray) -> np.ndarray:
    """k = 0 structure factor from a pair-expectation matrix (distinct pairs)."""
    n = xx.shape[-1]
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
        self._powers: dict[tuple[float, int], np.ndarray] = {}

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

    def _step_power(self, dt: float, k: int) -> np.ndarray:
        """P^k for P one RK4 step of L at dt, by binary powering in O(log k)
        products; cached per (dt, k)."""
        if (dt, k) not in self._powers:
            self._powers[dt, k] = np.linalg.matrix_power(_rk4_propagator(dt * self._generator), k)
        return self._powers[dt, k]

    def integrate(self, rho: np.ndarray, t: float, dt: float = 0.002) -> np.ndarray:
        """RK4 integration at step dt, applied as one propagator power per
        CHECK_INTERVAL plus one for the remainder; density-matrix invariants
        are verified and restored (re-hermitized, trace-normalized) after
        each of them."""
        rho = np.array(rho, dtype=np.complex128)
        n_steps = max(0, whole_steps(t, dt))
        check_every = max(1, whole_steps(CHECK_INTERVAL, dt))
        full, rest = divmod(n_steps, check_every)
        for k in [check_every] * full + ([rest] if rest else []):
            rho = self._verify_and_restore((self._step_power(dt, k) @ rho.ravel()).reshape(rho.shape))
        return rho

    def _verify_and_restore(self, rho: np.ndarray) -> np.ndarray:
        herm_dev = np.abs(rho - rho.conj().T).max()
        trace_dev = abs(rho.trace().real - 1.0) + abs(rho.trace().imag)
        if herm_dev > 1e-10 or trace_dev > 1e-10:
            raise NumericsError(
                f"density matrix invariants broken (herm {herm_dev:.2e}, trace {trace_dev:.2e}); reduce dt"
            )
        rho = 0.5 * (rho + rho.conj().T)
        rho /= rho.trace().real
        min_eig = float(np.linalg.eigvalsh(rho)[0])
        if min_eig < -1e-8:
            raise NumericsError(f"density matrix lost positivity (min eigenvalue {min_eig:.2e})")
        return rho

    def site_bloch(self, rho: np.ndarray) -> np.ndarray:
        """Per-site Bloch vectors tr(rho sigma_i^alpha), shape (n, 3)."""
        dim = 2**self.n
        idx = np.arange(dim)
        out = np.empty((self.n, 3))
        diag = rho[idx, idx].real
        for i in range(self.n):
            cross = rho[idx, self.flip[i]]
            out[i, 0] = cross.sum().real
            # tr(rho sigma^y): matrix element <b^m|sigma^y|b> is +i when b is up
            out[i, 1] = (np.where(self.up[i], 1.0j, -1.0j) * cross).sum().real
            out[i, 2] = np.where(self.up[i], diag, -diag).sum()
        return out

    def pair_xx(self, rho: np.ndarray) -> np.ndarray:
        """All tr(rho sigma_i^x sigma_j^x), shape (n, n); the diagonal is 1."""
        idx = np.arange(2**self.n)
        masks = _site_masks(self.n)
        out = np.empty((self.n, self.n))
        for i in range(self.n):
            for j in range(self.n):
                out[i, j] = rho[idx, idx ^ masks[i] ^ masks[j]].sum().real
        return out

    def iter_samples(self, traj: TrajectoryConfig, step: StepConfig):
        """Sample stream from the configured initial product state, matching
        the trajectory engines' schema (no jumps). Each driver step integrates
        one whole sample interval."""

        def advance(rho, k):
            return self.integrate(rho, k * step.dt, dt=step.dt), np.zeros(1, dtype=np.int64)

        rho0 = product_density(initial_product_state(traj, self.n))
        for t, rho, _ in SamplePath(rho0, advance, lambda rho: rho, traj, step):
            sxx = float(structure_factor_from_pairs(self.pair_xx(rho))) if self.n > 1 else 0.0
            yield Sample(t, self.site_bloch(rho), burn_in=t < traj.burn_in, sxx_inst=sxx)


# -- full-Hilbert-space trajectories -------------------------------------------

class FullWfmc:
    """Unrestricted trajectory engine: exact non-Hermitian drift plus exact
    sitewise jump operators, same stepping contract as the manifold engine
    (first-order jump sampling from the pre-step state, one uniform per site
    in fixed site order, RK4 drift for the no-jump part, renormalization)."""

    def __init__(self, geometry: LatticeGeometry, p: ModelParams):
        _check_cap(geometry.n_sites)
        self.n = geometry.n_sites
        self.p = p
        self.flip, self.up = _up_tables(self.n)
        h = build_hamiltonian(geometry, p)
        self.h_eff = h - 0.5j * p.gamma * np.diag(self.up.sum(axis=0).astype(complex))
        self._drift_steps: dict[float, np.ndarray] = {}

    def _drift(self, psi: np.ndarray, dt: float) -> np.ndarray:
        """One RK4 step of the no-jump drift d psi/dt = -i h_eff psi, as a
        product with its propagator (cached per dt); not renormalized. One
        vector-matrix product per row: BLAS rounds a row of a matrix product
        otherwise, and a batch row must keep the bits of its solo trajectory."""
        if dt not in self._drift_steps:
            self._drift_steps[dt] = _rk4_propagator(-1j * dt * self.h_eff).T
        return (psi[..., None, :] @ self._drift_steps[dt])[..., 0, :]

    def _renorm(self, psi: np.ndarray) -> np.ndarray:
        norm2 = (psi.real**2 + psi.imag**2).sum(axis=-1)
        # one min and one max, as in state.renormalize: a NaN fails both comparisons
        if not (norm2.min() >= NORM2_FLOOR and norm2.max() <= NORM2_MAX):
            raise NumericsError("state norm vanished or is not finite in full-space trajectory")
        return psi / np.sqrt(norm2)[..., None]

    def jump_probabilities(self, psi: np.ndarray, dt: float) -> np.ndarray:
        prob = psi.real**2 + psi.imag**2
        return (self.p.gamma * dt) * (prob @ self.up.T.astype(float))

    def apply_jump(self, psi: np.ndarray, site: int) -> np.ndarray:
        return self._renorm(np.where(self.up[site], 0.0, psi[..., self.flip[site]]))

    def advance(self, psi: np.ndarray, step: StepConfig,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One full time step; returns (new state, jumped index array) as
        :func:`gwmc.dynamics.advance` does."""
        if self.p.gamma * step.dt > MAX_JUMP_PROB:
            raise ConfigError(f"gamma*dt = {self.p.gamma * step.dt:g} exceeds max_jump_prob = {MAX_JUMP_PROB:g}")
        probs = self.jump_probabilities(psi, step.dt)
        draws = rng.random(size=probs.shape)
        jumped = draws < probs
        if jumped.any():
            psi = psi.copy()
            for site in range(self.n):
                rows = jumped[..., site]
                if rows.any():  # a 0-d mask gives one state vector an axis
                    psi[rows] = self.apply_jump(psi[rows], site)
        return self._renorm(self._drift(psi, step.dt)), np.argwhere(jumped)

    def _path(self, traj: TrajectoryConfig, step: StepConfig, streams) -> SamplePath:
        """:func:`gwmc.dynamics.row_ensemble` from the configured initial
        product state, row k on Philox stream ``streams[k]``; each sample
        observes (bloch, pair_xx), of shapes (rows, n, 3) and (rows, n, n)."""
        rows = len(streams)

        def observe(x):
            return [f(x, self.n).reshape(rows, self.n, -1) for f in (pauli_expectations, pair_xx_expectations)]

        psi = product_state_vector(initial_product_state(traj, self.n))
        return row_ensemble(psi, lambda x, rng: self.advance(x, step, rng), observe, traj, step, streams)


def full_wfmc_stream(geometry: LatticeGeometry, p: ModelParams, traj: TrajectoryConfig,
                     step: StepConfig = StepConfig(), stream: int = 0) -> TrajectoryStream:
    """The samples of :func:`full_wfmc_trajectory`, as they are taken."""
    engine = FullWfmc(geometry, p)

    def sample(t, observed, jumps):
        bloch, xx = observed
        sxx = float(structure_factor_from_pairs(xx[0])) if engine.n > 1 else 0.0
        return Sample(t, bloch[0], burn_in=t < traj.burn_in, jumps_in_interval=jumps, sxx_inst=sxx)

    return TrajectoryStream(engine._path(traj, step, [stream]), sample)


def full_wfmc_trajectory(
    geometry: LatticeGeometry,
    p: ModelParams,
    traj: TrajectoryConfig,
    step: StepConfig = StepConfig(),
    stream: int = 0,
) -> TrajectoryResult:
    """Single unrestricted trajectory with the manifold engine's sampling
    cadence; samples carry exact per-site Bloch vectors and exact pair-based
    instantaneous structure factors."""
    samples = full_wfmc_stream(geometry, p, traj, step, stream)
    return TrajectoryResult(list(samples), None, samples.total_jumps)


def full_wfmc_ensemble(
    geometry: LatticeGeometry,
    p: ModelParams,
    traj: TrajectoryConfig,
    step: StepConfig,
    n_traj: int,
    stream: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched unrestricted ensemble; row k draws from stream ``stream + k``,
    so it is bit-identical to ``full_wfmc_trajectory(..., stream=stream + k)``.

    Returns (times, bloch, pair_xx) with shapes (T,), (T, n_traj, n, 3) and
    (T, n_traj, n, n); averaging the per-trajectory values reproduces the
    master-equation expectations up to Monte Carlo error.
    """
    engine = FullWfmc(geometry, p)
    times, observed, _ = zip(*engine._path(traj, step, range(stream, stream + n_traj)))
    blochs, pairs = zip(*observed)
    return np.asarray(times), np.asarray(blochs), np.asarray(pairs)


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

    Checks: the analytic single-spin solution against the dense integrator,
    trajectory-ensemble averages against the master equation at checkpoint
    times (3 standard errors), the XXZ all-down steady state, and for n >= 2
    that the manifold engine shows a finite, resolvable approximation residual
    against the exact solution (a manifold engine that exactly reproduces the
    full dynamics for generic couplings would be wrong).
    """
    if n_sites not in _GEOMETRY_FOR_SITES:
        raise ConfigError(f"oracle check supports site counts {sorted(_GEOMETRY_FOR_SITES)}, got {n_sites}")
    if n_traj < 2:
        raise ConfigError(f"oracle check needs at least 2 trajectories for its standard errors, got {n_traj}")
    if t_total < _CHECKPOINTS[0]:
        raise ConfigError(f"oracle check needs t_total of at least {_CHECKPOINTS[0]:g}, "
                          f"its first checkpoint, got {t_total:g}")
    geometry = build_lattice(*_GEOMETRY_FOR_SITES[n_sites])
    checks: list[CheckResult] = []

    # 1. dense integrator vs closed-form single spin
    sys1 = DenseLindblad(build_lattice(1, 1), p)
    rho = product_density(plus_x_state(1))
    dev = 0.0
    prev = 0.0
    for t_chk in (1.0, 2.0, 5.0):
        rho = sys1.integrate(rho, t_chk - prev, dt=0.002)
        prev = t_chk
        dev = max(dev, float(np.abs(sys1.site_bloch(rho)[0] - single_spin_analytic(t_chk, (1, 0, 0))).max()))
    checks.append(CheckResult("single_spin_analytic", dev <= 1e-6, dev, 1e-6))

    # 2. unraveling exactness at checkpoint times
    traj = TrajectoryConfig(t_total=t_total, sample_interval=1.0, seed=seed)
    step = StepConfig(dt=dt)
    checkpoints = [t for t in _CHECKPOINTS if t <= t_total + 1e-9]
    # the full-space ensemble stops at the last checkpoint, the last time it is read
    times, blochs, pairs = full_wfmc_ensemble(geometry, p, replace(traj, t_total=checkpoints[-1]), step, n_traj)
    sys_n = DenseLindblad(geometry, p)
    rho = product_density(plus_x_state(n_sites))
    worst = 0.0
    prev_t = 0.0
    ok = True
    for t_chk in checkpoints:
        rho = sys_n.integrate(rho, t_chk - prev_t, dt=0.002)
        prev_t = t_chk
        idx = int(np.argmin(np.abs(times - t_chk)))
        vals = blochs[idx, :, 0, 0]  # per-trajectory <sigma_1^x>
        se = vals.std(ddof=1) / np.sqrt(n_traj)
        lhs = abs(vals.mean() - sys_n.site_bloch(rho)[0, 0])
        ok &= lhs <= 3.0 * se + 1e-12
        worst = max(worst, lhs / max(se, 1e-300))
        if n_sites >= 2:
            pv = pairs[idx, :, 0, 1]
            se2 = pv.std(ddof=1) / np.sqrt(n_traj)
            lhs2 = abs(pv.mean() - sys_n.pair_xx(rho)[0, 1])
            ok &= lhs2 <= 3.0 * se2 + 1e-12
            worst = max(worst, lhs2 / max(se2, 1e-300))
    checks.append(CheckResult("unraveling_exactness", ok, worst, 3.0, "max |dev|/SE over checkpoints"))

    # 3. XXZ exact steady state: all spins down
    p_xxz = ModelParams(jx=p.jx, jy=p.jx, jz=p.jz, gamma=p.gamma)
    sys_xxz = DenseLindblad(geometry, p_xxz)
    rho_ss = sys_xxz.integrate(product_density(plus_x_state(n_sites)), 40.0, dt=0.002)
    dark_dev = float(np.abs(sys_xxz.site_bloch(rho_ss) - np.array([0.0, 0.0, -1.0])).max())
    checks.append(CheckResult("xxz_dark_state", dark_dev <= 1e-4, dark_dev, 1e-4))

    # 4. manifold approximation residual (recorded; must not vanish for n >= 2).
    # Measured at the end of the run, where the gap has accumulated, on the
    # streams after the full-space ensemble's, so that no stream feeds two rows.
    if n_sites >= 2:
        g_times, g_blochs = run_ensemble(geometry, p, traj, step, n_traj, stream=n_traj)
        rho = sys_n.integrate(rho, float(g_times[-1]) - prev_t, dt=0.002)
        pair_vals = g_blochs[-1, :, 0, 0] * g_blochs[-1, :, 1, 0]
        se = pair_vals.std(ddof=1) / np.sqrt(n_traj)
        residual = abs(pair_vals.mean() - sys_n.pair_xx(rho)[0, 1])
        checks.append(
            CheckResult(
                "manifold_residual_resolved",
                residual > 3.0 * se,
                residual,
                3.0 * se,
                f"|<xx>_manifold - <xx>_exact| at t={g_times[-1]:g}",
            )
        )
    return OracleReport(checks)

