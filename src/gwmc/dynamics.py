"""Trajectory engine on the product-state manifold.

Each site carries a two-component spinor. Between jumps all spinors follow
the coupled nonlinear equations

    d psi_i / dt = -i h_i(Psi) psi_i,
    h_i = Jx B_i^x sigma^x + Jy B_i^y sigma^y + Jz B_i^z sigma^z
          - i (gamma/2) sigma^+ sigma^-,

where B_i^alpha sums the Bloch vectors of the nearest neighbors of i. The
drift is integrated with classical RK4, recomputing the mean fields from the
intermediate state at every stage (Jacobi-style: all sites see the same stage
snapshot), and renormalizing after the full step. Decay is unraveled by
first-order jump sampling: per step each site jumps to the down state with
probability gamma * dt * |amp_up|^2, drawn in fixed site order.

All state-level functions accept leading batch dimensions, so m
trajectories on one lattice are advanced as one (m, n_sites, 2) array by
:func:`batch_samples`, drawing from a single counter-based random stream or
from one stream per row. :func:`step_and_sample` is the one step-and-sample
loop, for this engine and for the exact references in :mod:`gwmc.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .lattice import LatticeGeometry
from .observables import Sample
from .state import bloch_vectors, is_dark, load_state_csv, plus_x_state, renormalize

@dataclass(frozen=True)
class ModelParams:
    """XYZ couplings and decay rate. gamma = 1 fixes the unit system: times
    are reported in 1/gamma and couplings in gamma. gamma = 0 is the unitary
    limit (no jumps), kept available for consistency tests."""

    jx: float
    jy: float
    jz: float
    gamma: float = 1.0

    def __post_init__(self):
        # a coupling may also be an (m, 1) column, one value per batch row
        if not all(np.isfinite(v).all() for v in (self.jx, self.jy, self.jz, self.gamma)):
            raise ConfigError(f"couplings and gamma must be finite, got {self}")
        if not self.gamma >= 0:
            raise ConfigError(f"gamma must be non-negative, got {self.gamma}")


def _stack_params(params) -> ModelParams:
    """Couplings of a batch with one row per entry of ``params``: a coupling
    on which the rows differ becomes an (m, 1) column that broadcasts over
    the sites of its row. The rows share gamma, the unit of time."""
    if any(q.gamma != params[0].gamma for q in params):
        raise ConfigError("the rows of a batch must share gamma")
    columns = {}
    for name in ("jx", "jy", "jz"):
        values = [getattr(q, name) for q in params]
        if any(v != values[0] for v in values):
            columns[name] = np.array(values)[:, None]
    return replace(params[0], **columns)


@dataclass(frozen=True)
class StepConfig:
    dt: float = 0.01
    max_jump_prob: float = 0.05

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not 0.0 < self.max_jump_prob < 0.5:
            raise ConfigError(f"max_jump_prob must lie in (0, 0.5), got {self.max_jump_prob}")


@dataclass(frozen=True)
class TrajectoryConfig:
    t_total: float
    burn_in: float = 0.0
    sample_interval: float = 1.0
    seed: int = 0
    initial_state: str = "plus_x"  # plus_x | minus_x | path to a state snapshot CSV

    def __post_init__(self):
        if not np.isfinite(self.t_total):
            raise ConfigError(f"t_total must be finite, got {self.t_total}")
        if not 0.0 <= self.burn_in < self.t_total:
            raise ConfigError(f"burn_in must satisfy 0 <= burn_in < t_total, got {self.burn_in}")
        if not self.sample_interval > 0:
            raise ConfigError("sample_interval must be positive")


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream) fully determines the draw
    sequence. Trajectory k of an ensemble uses stream index k, so ensembles
    reproduce independently of scheduling order."""

    seed: int
    stream: int = 0

    ALGORITHM = "philox4x64"

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % 2**64, self.stream % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


class RowStreams:
    """One generator per batch row: row k of each (m, n) block of uniforms is
    filled by generators[k], so it holds exactly the draws a one-row run on
    that generator would make."""

    def __init__(self, generators):
        self.generators = list(generators)

    def random(self, size) -> np.ndarray:
        out = np.empty(size)
        for gen, row in zip(self.generators, out.reshape(len(self.generators), -1)):
            gen.random(out=row)
        return out


# The drift kernel views a batch of N = m * n_sites spinors u = a + ib,
# d = c + ie as the real, component-major array y = (a, b, c, e) of shape
# (4, N). Each row of _SELECT picks one component of y, times +-1 or +-2,
# and the rows come in blocks of four, one row per output. Rows 0-15 are
# first factors: block j times y_j, summed over the blocks, gives
# 2(ac + be), 2(ae - bc), a^2 + b^2 - c^2 - e^2 and |psi|^2, that is
# (sx, sy, sz, 1) |psi|^2. Rows 16-31 are what the generator coefficients
# Jx Bx, Jy By, Jz Bz and -gamma/2 multiply, one block per coefficient:
# summed over the blocks, the products give dy/dt = -i h(Psi) psi.
_A, _B, _C, _E = np.eye(4)
_O = np.zeros(4)
_SELECT = np.array([
    2 * _C, 2 * _E, _A, _A,  2 * _E, -2 * _C, _B, _B,  _O, _O, -_C, _C,  _O, _O, -_E, _E,
    _E, -_C, _B, -_A,  -_C, -_E, _A, _B,  _B, -_A, -_E, _C,  _A, _B, _O, _O,
])


def _sum_plan(x: np.ndarray, out: np.ndarray) -> list:
    """The (a, b, out) adds that sum x over its leading axis into out, in a
    fixed order: (x0 + x2) + (x1 + x3) for four terms, (x0 + x2) + x1 for
    three. They overwrite x; at least two terms."""
    plan = []
    while len(x) > 2:
        if len(x) % 2:  # an odd last term goes into the first
            plan.append((x[0], x[-1], x[0]))
            x = x[:-1]
        else:
            half = len(x) // 2
            plan.append((x[:half], x[half:], x[:half]))
            x = x[:half]
    plan.append((x[0], x[1], out))
    return plan


def _run(plan) -> None:
    for a, b, out in plan:
        np.add(a, b, out=out)


class _DriftKernel:
    """The no-jump RK4 step of one geometry and its (stacked) couplings.

    A derivative stage is a dozen numpy calls on (4, N) arrays: one matmul
    by _SELECT, the quadratic products and their sum, one divide to Bloch
    vectors, the neighbour sum (a take on the neighbour table and a sum),
    the generator coefficients, and the sum of their products with the
    selected components. Every matrix BLAS sees has at most one nonzero per
    output, so each entry is one exact product; every sum of two or more
    terms is an elementwise add in a fixed order. So no result depends on
    the batch width: each row of a batch is bit-identical to its spinors
    stepped alone. The buffers, and the views into them that a stage uses,
    are made once per batch width.
    """

    def __init__(self, geometry: LatticeGeometry, p: ModelParams):
        self.geometry = geometry
        self.p = p
        couplings = np.broadcast_arrays(*(np.asarray(v, float) for v in (p.jx, p.jy, p.jz)))
        self._couplings = np.stack(couplings).reshape(3, -1, 1)  # (3, 1 or one per row, 1)
        self._size = None

    def _fit(self, size: int) -> None:
        n = self.geometry.n_sites
        degree = self.geometry.degree
        z = self._selected = np.empty((len(_SELECT), size))
        quad = self._quad = z[:16].reshape(4, 4, size)
        self._quad_sum = _sum_plan(quad, quad[0])
        self._bloch = np.empty((3, size))
        self._ratio = z[:3], z[3], self._bloch  # (sx, sy, sz) |psi|^2 / |psi|^2
        sites = self.geometry.neighbor_table.T[:, None, :] + np.arange(size // n)[:, None] * n
        self._gather = sites.reshape(degree, 1, size) + np.arange(3)[:, None] * size  # flat, into Bloch
        gen = self._generator = np.empty((4, size))
        gen[3] = -0.5 * self.p.gamma
        field = self._field = np.zeros((max(degree, 1), 3, size))  # stays zero with no neighbours
        self._field_sum = _sum_plan(field, gen[:3]) if degree > 1 else []
        total = gen[:3] if degree > 1 else field[0]
        groups = self._couplings.shape[1]
        self._coefficients = total.reshape(3, groups, -1), gen[:3].reshape(3, groups, -1)
        terms = z[16:].reshape(4, 4, size)
        self._terms = terms, gen[:, None, :]
        self._acc, self._k, self._stage_input = np.empty((3, 4, size))
        self._term_sums = _sum_plan(terms, self._acc), _sum_plan(terms, self._k)
        self._size = size

    def _stage(self, x: np.ndarray, into: int, mask) -> np.ndarray:
        """dy/dt = -i h(Psi) psi at the snapshot x, zero off the mask, into
        the accumulator (into = 0, the first stage) or the stage buffer."""
        np.matmul(_SELECT, x, out=self._selected)
        np.multiply(self._quad, x[:, None, :], out=self._quad)
        _run(self._quad_sum)
        np.divide(*self._ratio)
        if len(self._gather):
            np.take(self._bloch, self._gather, out=self._field, mode="clip")  # "raise" buffers out
        _run(self._field_sum)
        total, coefficients = self._coefficients
        np.multiply(total, self._couplings, out=coefficients)
        terms, generator = self._terms
        np.multiply(terms, generator, out=terms)
        _run(self._term_sums[into])
        k = (self._acc, self._k)[into]
        if mask is not None:
            k *= mask
        return k

    def __call__(self, amps: np.ndarray, dt: float, active: np.ndarray | None) -> np.ndarray:
        """One classical RK4 step of the drift, not renormalized: y + dt/6
        (((k1 + 2 k2) + 2 k3) + k4), with k1 kept in the accumulator."""
        amps = np.ascontiguousarray(amps, dtype=np.complex128)
        y = amps.view(np.float64).reshape(-1, 4).T
        if y.shape[1] != self._size:
            self._fit(y.shape[1])
        mask = None if active is None else active.reshape(-1)
        acc = self._stage(y, 0, mask)
        x = np.multiply(acc, 0.5 * dt, out=self._stage_input)
        x += y
        for c in (0.5 * dt, dt, None):
            k = self._stage(x, 1, mask)
            if c is not None:  # the next stage's snapshot y + c k
                np.multiply(k, c, out=x)
                x += y
                k *= 2.0
            acc += k
        acc *= dt / 6.0
        out = np.empty_like(amps)
        np.add(y, acc, out=out.view(np.float64).reshape(-1, 4).T)
        return out


_kernel: _DriftKernel | None = None


def _drift_kernel(geometry: LatticeGeometry, p: ModelParams) -> _DriftKernel:
    """The kernel of (geometry, p), rebuilt when either is a new object:
    batch_samples stacks its couplings once, so each of its runs builds one."""
    global _kernel
    if _kernel is None or _kernel.geometry is not geometry or _kernel.p is not p:
        _kernel = _DriftKernel(geometry, p)
    return _kernel


def deterministic_step(
    amps: np.ndarray,
    geometry: LatticeGeometry,
    p: ModelParams,
    dt: float,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """One RK4 step of the no-jump drift, renormalized afterwards.

    ``active`` masks the sites being advanced; masked-out sites hold their
    value through every stage (they still source the mean fields).
    """
    return renormalize(_drift_kernel(geometry, p)(amps, dt, active))


def jump_probabilities(amps: np.ndarray, p: ModelParams, dt: float) -> np.ndarray:
    """First-order per-site jump probabilities gamma * dt * |amp_up|^2."""
    u = amps[..., 0]
    return (p.gamma * dt) * (u.real**2 + u.imag**2)


def advance(
    amps: np.ndarray,
    geometry: LatticeGeometry,
    p: ModelParams,
    step: StepConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One full time step: jump sampling from the pre-step state, collapses,
    then the masked drift step. Returns (new state, jumped index array).

    The jumped indices have one row per event: (site,) for a single state,
    (trajectory, site) for a batch.
    """
    if p.gamma * step.dt > step.max_jump_prob:
        raise ConfigError(
            f"gamma*dt = {p.gamma * step.dt:g} exceeds max_jump_prob = {step.max_jump_prob:g}"
        )
    probs = jump_probabilities(amps, p, step.dt)
    draws = rng.random(size=probs.shape)
    jumped = draws < probs
    if jumped.any():
        amps = amps.copy()
        amps[jumped, :] = (0.0, 1.0)
        new = deterministic_step(amps, geometry, p, step.dt, active=~jumped)
    else:
        new = deterministic_step(amps, geometry, p, step.dt)
    return new, np.argwhere(jumped)


def initial_product_state(traj: TrajectoryConfig, n_sites: int) -> np.ndarray:
    """Resolve the configured initial state; refuses the artificial dark state.

    The all-down product state is an exact fixed point of the restricted
    dynamics for every parameter choice (an artifact of the manifold), so a
    run started there can never leave it.
    """
    if traj.initial_state == "plus_x":
        amps = plus_x_state(n_sites, +1)
    elif traj.initial_state == "minus_x":
        amps = plus_x_state(n_sites, -1)
    else:
        amps = load_state_csv(traj.initial_state)
        if amps.shape[0] != n_sites:
            raise ConfigError(
                f"snapshot has {amps.shape[0]} sites, geometry has {n_sites}"
            )
        amps = renormalize(amps)
    if is_dark(bloch_vectors(amps)):
        raise ConfigError(
            "initial state is the all-down dark state, an exact fixed point of the "
            "product-manifold dynamics; start with finite in-plane magnetization"
        )
    return amps


@dataclass
class TrajectoryResult:
    samples: list[Sample]
    trapped_at: float | None
    total_jumps: int

    def post_burn_in(self) -> list[Sample]:
        return [s for s in self.samples if not s.burn_in]


def k_steps(advance_once, rows: int):
    """Lift a one-step advance, returning (new state, jumped index array) as
    :func:`advance` does, to the driver's ``advance(state, k)``: k steps and
    the (rows,) jump counts per batch row."""

    def advance_k(state, k):
        counts = np.zeros(rows, dtype=np.int64)
        for _ in range(k):
            state, jumped = advance_once(state)
            if len(jumped):
                counts += np.bincount(jumped[:, 0], minlength=rows) if rows > 1 else len(jumped)
        return state, counts

    return advance_k


def whole_steps(duration: float, dt: float) -> int:
    """duration / dt rounded to whole steps, as :func:`step_and_sample`
    counts time. Refuses a count that is not finite: a non-finite duration,
    or a dt so small against it that the count overflows."""
    count = duration / dt
    if not math.isfinite(count):
        raise ConfigError(f"{duration:g} / dt at dt = {dt:g} is not a finite step count")
    return int(round(count))


def step_and_sample(state, advance, observe, traj: TrajectoryConfig, step: StepConfig,
                    rows: int = 1, trap: bool = False, totals: np.ndarray | None = None):
    """The one step-and-sample loop, shared by all three engines.

    ``advance(state, k)`` takes k time steps and returns (new state, (rows,)
    jump counts); ``observe(state)`` gives what a sample records. Yields
    (t, observation, jumps since the previous sample) at t = 0 and every
    sample_interval, rounded to whole steps.

    With ``trap`` the observation is the manifold engine's (rows, n_sites, 3)
    Bloch array, and a row whose sample is the all-down dark state is
    trapped: the dark state is exact, so its Bloch vectors freeze at that
    sample and its later jumps are not counted; once every row is trapped,
    stepping stops. ``totals``, if given, receives each row's jump count
    over the whole horizon; only then are the steps after the last sample
    taken.
    """
    if traj.sample_interval < step.dt:
        raise ConfigError("sample_interval must be at least dt")
    n_steps = whole_steps(traj.t_total, step.dt)
    spp = whole_steps(traj.sample_interval, step.dt)

    obs = observe(state)
    trapped = np.zeros(rows, dtype=bool)
    total = np.zeros(rows, dtype=np.int64)
    yield 0.0, obs, np.zeros(rows, dtype=np.int64)
    for n in range(spp, n_steps + 1, spp):
        since = np.zeros(rows, dtype=np.int64)
        if not trapped.all():
            state, since = advance(state, spp)
            since[trapped] = 0
        fresh = observe(state)
        if trap:
            fresh[trapped] = obs[trapped]
            trapped |= is_dark(fresh)
        obs = fresh
        yield n * step.dt, obs, since
        total += since
    if totals is not None:
        if not trapped.all():
            _, since = advance(state, n_steps % spp)
            total += since * ~trapped
        totals[:] = total


def batch_samples(
    geometry: LatticeGeometry,
    params,
    traj: TrajectoryConfig,
    step: StepConfig,
    rng,
    totals: np.ndarray | None = None,
):
    """Advance one batch row per entry of ``params`` from the configured
    initial state through :func:`step_and_sample` with the dark-state trap;
    yields (t, bloch, jumps) with bloch of shape (m, n_sites, 3) and jumps
    the (m,) jump counts since the previous sample.

    ``rng`` draws each step's (m, n_sites) block of uniforms: a Generator
    shares one stream over the block, a :class:`RowStreams` gives every row
    its own, which makes row k bit-identical to a one-row run on its stream.
    """
    m = len(params)
    p = _stack_params(params)
    amps = initial_product_state(traj, geometry.n_sites)
    if m > 1:  # a single row keeps no batch axis: small 2-d arrays step 3-5 % faster
        amps = np.broadcast_to(amps, (m,) + amps.shape).copy()

    def observe(a):
        return bloch_vectors(a).reshape(m, -1, 3)

    advance_k = k_steps(lambda a: advance(a, geometry, p, step, rng), m)
    return step_and_sample(amps, advance_k, observe, traj, step, m, trap=True, totals=totals)


def run_trajectory(
    geometry: LatticeGeometry,
    p: ModelParams,
    traj: TrajectoryConfig,
    step: StepConfig = StepConfig(),
    stream: int = 0,
) -> TrajectoryResult:
    """Run one trajectory, sampling every sample_interval (rounded to whole
    steps). Bit-reproducible for fixed (seed, stream, configs).

    Once the state reaches the all-down dark state the remainder is marked
    trapped and integration short-circuits: the dark state is exact, so later
    samples simply repeat the frozen Bloch vectors.
    """
    rng = RngStream(traj.seed, stream).generator()
    totals = np.zeros(1, dtype=np.int64)
    samples = []
    trapped_at = None
    for t, bloch, jumps in batch_samples(geometry, [p], traj, step, rng, totals):
        if trapped_at is None and is_dark(bloch[0]):
            trapped_at = t
        samples.append(Sample(t, bloch[0], burn_in=t < traj.burn_in, jumps_in_interval=int(jumps[0])))
    return TrajectoryResult(samples, trapped_at, int(totals[0]))


def run_ensemble(
    geometry: LatticeGeometry,
    p: ModelParams,
    traj: TrajectoryConfig,
    step: StepConfig,
    n_traj: int,
    stream: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance n_traj independent trajectories as one batched state.

    Returns (times, bloch) with bloch of shape (n_times, n_traj, n_sites, 3),
    sampled on the same cadence as :func:`run_trajectory`. The whole batch
    shares a single counter-based stream (rows stay independent because each
    step draws one variate per site per trajectory); use :class:`RowStreams`
    with :func:`batch_samples` for rows that must match solo trajectories.
    """
    rng = RngStream(traj.seed, stream).generator()
    samples = list(batch_samples(geometry, [p] * n_traj, traj, step, rng))
    return np.asarray([t for t, _, _ in samples]), np.asarray([b for _, b, _ in samples])
