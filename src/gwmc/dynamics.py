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
first-order jump sampling, :func:`_unravel`, the step of both trajectory
engines and the one statement of the jump probability gamma * dt * <n_up>:
here a jumped site collapses to the down state.

All state-level functions accept leading batch dimensions, so m
trajectories on one lattice are advanced as one (m, n_sites, 2) array by
:func:`batch_samples`, each row drawing from its own counter-based stream
(:class:`RowStreams`). :class:`SamplePath` is the one step-and-sample
loop, iterated once; it keeps its run's record, each row's jump total and
trap time, and ``first_kept``, :func:`cadence`'s first post-burn-in index.
Each engine has one path maker: :func:`batch_samples` here, and
``FullWfmc.path`` and ``DenseLindblad.path`` in :mod:`gwmc.oracle`; the
trajectory engines' run through :func:`row_ensemble`. Every path observes
per-row (bloch, sxx, ...): Bloch vectors and the k = 0 structure factor,
factorized here; both exact paths observe (bloch, sxx, pair_xx), pair_xx
the (n, n) matrix of <sigma_i^x sigma_j^x>. ``TrajectoryStream(path)``,
the one maker of Samples, reads row 0 of a one-row path; only a caller
that reports the jump total calls its ``finish()``, for the last steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .lattice import LatticeGeometry
from .observables import Sample, instantaneous_structure_factor
from .state import _abs2, bloch_vectors, is_dark, load_state_csv, plus_x_state, renormalize

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


MAX_JUMP_PROB = 0.05  # largest gamma * dt the first-order jump sampling accepts


@dataclass(frozen=True)
class StepConfig:
    dt: float = 0.01

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class TrajectoryConfig:
    t_total: float
    burn_in: float = 0.0
    sample_interval: float = 1.0
    seed: int = 0
    initial_state: str = "plus_x"  # plus_x | minus_x | path to a state snapshot CSV

    def __post_init__(self):
        if not (np.isfinite(self.t_total) and self.t_total > 0):
            raise ConfigError(f"t_total must be positive and finite, got {self.t_total}")
        if not 0.0 <= self.burn_in < self.t_total:
            raise ConfigError(f"burn_in must satisfy 0 <= burn_in < t_total, got {self.burn_in}")
        if not self.sample_interval > 0:
            raise ConfigError("sample_interval must be positive")
        if not 0 <= self.seed < 2**64:  # the Philox key word
            raise ConfigError(f"seed must lie in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class RngStream(np.random.bit_generator.ISeedSequence):
    """Counter-based random stream: (seed, stream) fully determines the draw
    sequence. Trajectory k of an ensemble uses stream index k, so ensembles
    reproduce independently of scheduling order. It is Philox's seed
    sequence, whose state is the key (seed, stream): Philox(key=...) would
    first spend ~10 us of OS entropy on a SeedSequence it drops, per row."""

    seed: int
    stream: int = 0

    ALGORITHM = "philox4x64"

    def generate_state(self, n_words=2, dtype=np.uint64) -> np.ndarray:
        return np.array([self.seed % 2**64, self.stream % 2**64], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self))


READ_AHEAD = 2**16  # uniforms RowStreams buffers over all its rows (512 KB)


class RowStreams:
    """The one random source: row k draws from RngStream(seed, streams[k]),
    so it replays alone. :meth:`random` returns the next step's uniforms,
    (rows, n) or (n,) for one row, the same count each call, as a view into
    one block that each refill overwrites. Philox is counter-based, so each
    row reads ahead whole steps (as many as READ_AHEAD allows, at least
    one) with the bits of step-wise draws."""

    def __init__(self, seed: int, streams):
        self.generators = [RngStream(seed, s).generator() for s in streams]
        self._block = np.empty((len(self.generators), 0, 0))
        self._next = 0

    def random(self, size) -> np.ndarray:
        rows = len(self.generators)
        if self._next == self._block.shape[1]:
            if not self._block.size:  # whole steps of math.prod(size) uniforms
                self._block = np.empty((rows, max(1, READ_AHEAD // math.prod(size)), math.prod(size) // rows))
            for gen, row in zip(self.generators, self._block):
                gen.random(out=row)
            self._next = 0
        self._next += 1
        return self._block[:, self._next - 1].reshape(size)


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
    """The adds that sum x over its leading axis into out, in a fixed order:
    (x0 + x2) + (x1 + x3) for four terms, (x0 + x2) + x1 for three, as
    (ufunc, operands) calls. They overwrite x; at least two terms."""
    plan = []
    while len(x) > 2:
        if len(x) % 2:  # an odd last term goes into the first
            plan.append((np.add, (x[0], x[-1], x[0])))
            x = x[:-1]
        else:
            half = len(x) // 2
            plan.append((np.add, (x[:half], x[half:], x[:half])))
            x = x[:half]
    plan.append((np.add, (x[0], x[1], out)))
    return plan


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
    stepped alone.

    The kernel owns its buffers, made once per state shape: the state's
    copy, the stage input, the accumulator, the stage derivative, the mask
    and the output. Each RK4 step is compiled once per (dt, masked or not)
    into a flat list of (ufunc, operands) calls on them, so a step costs
    the numpy calls and no Python around them. The step a call returns is
    the output buffer, which the next call overwrites.
    """

    def __init__(self, geometry: LatticeGeometry, p: ModelParams):
        self.geometry = geometry
        self.p = p
        couplings = np.broadcast_arrays(*(np.asarray(v, float) for v in (p.jx, p.jy, p.jz)))
        self._couplings = np.stack(couplings).reshape(3, -1, 1)  # (3, 1 or one per row, 1)
        self._shape = None

    def _fit(self, shape: tuple) -> None:
        """The buffers for states of this (..., n_sites, 2) shape, with no
        compiled step yet."""
        n = self.geometry.n_sites
        degree = self.geometry.degree
        self._in, self._out = np.empty((2,) + shape, dtype=np.complex128)
        # the (4, N) real, component-major views of the complex (N, 2) spinors
        self._y, self._y_out = (a.view(np.float64).reshape(-1, 4).T for a in (self._in, self._out))
        size = self._y.shape[1]
        self._mask = np.empty(shape[:-1])
        z = self._selected = np.empty((len(_SELECT), size))
        self._bloch = np.empty((3, size))
        sites = self.geometry.neighbor_table.T[:, None, :] + np.arange(size // n)[:, None] * n
        self._gather = sites.reshape(degree, 1, size) + np.arange(3)[:, None] * size  # flat, into Bloch
        gen = self._generator = np.empty((4, size))
        gen[3] = -0.5 * self.p.gamma
        self._field = np.zeros((max(degree, 1), 3, size))  # stays zero with no neighbours
        self._acc, self._k, self._stage_input = np.empty((3, 4, size))
        self._programs = {}
        self._shape = shape

    def _stage_program(self, x: np.ndarray, k: np.ndarray) -> list:
        """The calls of one derivative stage: dy/dt = -i h(Psi) psi at the
        (4, N) snapshot x, into k."""
        z, field, gen = self._selected, self._field, self._generator
        quad = z[:16].reshape(4, 4, -1)
        program = [
            (np.matmul, (_SELECT, x, z)),
            (np.multiply, (quad, x[:, None, :], quad)),
            *_sum_plan(quad, quad[0]),
            (np.divide, (z[:3], z[3], self._bloch)),
        ]
        degree = self.geometry.degree
        if degree:
            program.append((self._bloch.take, (self._gather, None, field, "clip")))  # "raise" buffers out
        if degree > 1:
            program += _sum_plan(field, gen[:3])
        total = gen[:3] if degree > 1 else field[0]
        groups = self._couplings.shape[1]
        terms = z[16:].reshape(4, 4, -1)
        return program + [
            (np.multiply, (total.reshape(3, groups, -1), self._couplings, gen[:3].reshape(3, groups, -1))),
            (np.multiply, (terms, gen[:, None, :], terms)),
            *_sum_plan(terms, k),
        ]

    def _compile(self, dt: float, masked: bool) -> list:
        """The calls of one classical RK4 step, not renormalized: y + dt/6
        (((k1 + 2 k2) + 2 k3) + k4), with k1 kept in the accumulator; each k
        is zero off the mask."""
        y, x, acc, k = self._y, self._stage_input, self._acc, self._k
        mask = self._mask.reshape(-1)

        def stage(snapshot, into):
            calls = self._stage_program(snapshot, into)
            return calls + [(np.multiply, (into, mask, into))] if masked else calls

        program = stage(y, acc) + [(np.multiply, (acc, 0.5 * dt, x)), (np.add, (x, y, x))]
        for c in (0.5 * dt, dt, None):
            program += stage(x, k)
            if c is not None:  # the next stage's snapshot y + c k
                program += [(np.multiply, (k, c, x)), (np.add, (x, y, x)), (np.multiply, (k, 2.0, k))]
            program.append((np.add, (acc, k, acc)))
        return program + [(np.multiply, (acc, dt / 6.0, acc)), (np.add, (y, acc, self._y_out))]

    def __call__(self, amps: np.ndarray, dt: float, active: np.ndarray | None) -> np.ndarray:
        """One RK4 step of the drift, not renormalized, into the output
        buffer; ``active`` masks the sites being advanced."""
        if amps.shape != self._shape:
            self._fit(amps.shape)
        key = dt, active is not None
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = self._compile(*key)
        np.copyto(self._in, amps)
        if active is not None:
            np.copyto(self._mask, active)
        for f, args in program:
            f(*args)
        return self._out


def deterministic_step(
    amps: np.ndarray,
    geometry: LatticeGeometry,
    p: ModelParams,
    dt: float,
    active: np.ndarray | None = None,
    kernel: _DriftKernel | None = None,
) -> np.ndarray:
    """One RK4 step of the no-jump drift, renormalized afterwards.

    ``active`` masks the sites being advanced; masked-out sites hold their
    value through every stage (they still source the mean fields). A run
    passes the ``kernel`` of (geometry, p) it built; without one the call
    builds its own and keeps nothing.
    """
    if kernel is None:
        kernel = _DriftKernel(geometry, p)
    elif kernel.geometry is not geometry or kernel.p is not p:
        raise ValueError("the drift kernel was built for another geometry or other couplings")
    return renormalize(kernel(amps, dt, active))


def _check_jump_ceiling(gamma: float, dt: float) -> None:
    if gamma * dt > MAX_JUMP_PROB:
        raise ConfigError(f"gamma*dt = {gamma * dt:g} exceeds max_jump_prob = {MAX_JUMP_PROB:g}")


# the jumped indices of a jump-free step, a read-only (0, ndim) view of this
_NO_JUMPS = np.empty((0, 32), dtype=np.intp)
_NO_JUMPS.flags.writeable = False


def _unravel(state, gamma: float, step: StepConfig, n_up: np.ndarray, rng, collapse, drift):
    """The first-order unraveling step of both trajectory engines (Dalibard,
    Castin & Molmer, PRL 68, 580 (1992)), and the one home of its rule. Each
    row draws one uniform per site from its stream, in site order; a site
    jumps if it is below gamma * dt * <n_up>, from ``n_up``, the (..., n)
    up-populations before the step. ``collapse(state, jumped)`` applies
    the jumps, then ``drift(state, jumped or None)`` takes the renormalized
    RK4 step. The one rule the engines differ in: a manifold site that jumped
    holds through the rest of its step (the masked drift), a full-space state
    drifts whole. Returns (new state, a (site,) or (row, site) per jump)."""
    _check_jump_ceiling(gamma, step.dt)
    jumped = rng.random(size=n_up.shape) < (gamma * step.dt) * n_up
    if jumped.any():
        return drift(collapse(state, jumped), jumped), np.argwhere(jumped)
    return drift(state, None), _NO_JUMPS[:, :jumped.ndim]


def advance(
    amps: np.ndarray,
    geometry: LatticeGeometry,
    p: ModelParams,
    step: StepConfig,
    rng: np.random.Generator,
    kernel: _DriftKernel | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One :func:`_unravel` step on the sites' up-populations |u|^2: a jumped
    site collapses to the down state and holds, the others take
    :func:`deterministic_step`'s masked drift."""
    def collapse(a, jumped):
        a = a.copy()
        a[jumped, :] = (0.0, 1.0)
        return a

    def drift(a, jumped):
        return deterministic_step(a, geometry, p, step.dt, None if jumped is None else ~jumped, kernel)

    return _unravel(amps, p.gamma, step, _abs2(amps[..., 0]), rng, collapse, drift)


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


class TrajectoryStream:
    """One trajectory's Samples, made as it is iterated (once) and kept
    nowhere: row 0's Bloch vectors and Sxx from each observation of the
    one-row SamplePath ``path``, with time, jump count and the burn-in flag
    of a sample before the path's ``first_kept``. ``trapped_at`` is the
    path's; :meth:`finish` steps to the horizon for the jump total."""

    def __init__(self, path: SamplePath):
        self._path = path

    def __len__(self) -> int:
        return len(self._path)

    @property
    def trapped_at(self) -> float | None:
        return self._path.trapped_at[0]

    def finish(self) -> int:
        return int(self._path.finish()[0])

    def __iter__(self):
        for j, (t, (bloch, sxx, *_), jumps) in enumerate(self._path):
            yield Sample(t, bloch[0], burn_in=j < self._path.first_kept, jumps_in_interval=int(jumps[0]),
                         sxx_inst=float(sxx[0]))


def whole_steps(duration: float, dt: float) -> int:
    """duration / dt rounded to whole steps. Refuses a count that is not
    finite: a non-finite duration, or a dt so small against it that the
    count overflows."""
    count = duration / dt
    if not math.isfinite(count):
        raise ConfigError(f"{duration:g} / dt at dt = {dt:g} is not a finite step count")
    return int(round(count))


def cadence(traj: TrajectoryConfig, step: StepConfig) -> tuple[int, int, int]:
    """(steps per sample, steps in all, index of the first sample at or after
    burn_in) of a :class:`SamplePath`; that index is past the last sample
    when none is. Refuses a sample_interval below dt, and a
    sample_interval or t_total off the step grid (to a relative 1e-9)."""
    if traj.sample_interval < step.dt:
        raise ConfigError("sample_interval must be at least dt")
    for name in ("sample_interval", "t_total"):
        span = getattr(traj, name)
        if not math.isclose(span / step.dt, whole_steps(span, step.dt), rel_tol=1e-9):
            raise ConfigError(f"{name} = {span:g} is not a whole number of steps of dt = {step.dt:g}")
    spp, n_steps = whole_steps(traj.sample_interval, step.dt), whole_steps(traj.t_total, step.dt)
    near = math.ceil(traj.burn_in / (spp * step.dt))  # the first kept sample, or one off by rounding
    first = next(j for j in (near - 1, near, near + 1) if j * spp * step.dt >= traj.burn_in)  # timed as the path
    return spp, n_steps, first


class SamplePath:
    """The one step-and-sample loop of all three engines, and its run's record.

    ``advance(state, k)`` takes k time steps and returns (new state, (rows,)
    jump counts); ``observe(state)`` gives what a sample records, per-row
    arrays (bloch, sxx, ...) that start with shapes (rows, n_sites, 3) and
    (rows,). Iterating yields ``len()`` tuples (t, observation, jumps since
    the previous sample) at t = 0 and every sample_interval, once; those
    from index ``first_kept`` on are post-burn-in, by :func:`cadence`.

    With ``trap`` a row whose sample is the all-down dark state is trapped:
    the dark state is exact, so its record freezes at that sample,
    ``trapped_at[row]``, and its later jumps are not counted; once
    every row is trapped, stepping stops. The path keeps the state, the
    steps taken ``n`` and each row's ``total_jumps``; only :meth:`finish`
    takes the steps after the last sample.
    """

    def __init__(self, state, advance, observe, traj: TrajectoryConfig, step: StepConfig,
                 rows: int = 1, trap: bool = False):
        self.spp, self.n_steps, self.first_kept = cadence(traj, step)
        self.dt = step.dt
        self.state, self._advance, self._observe, self._trap = state, advance, observe, trap
        self.n, self._started = 0, False
        self.trapped = np.zeros(rows, dtype=bool)
        self.trapped_at: list[float | None] = [None] * rows
        self.total_jumps = np.zeros(rows, dtype=np.int64)

    def __len__(self) -> int:
        return self.n_steps // self.spp + 1

    def __iter__(self):
        if self._started:
            raise RuntimeError("a SamplePath is iterated once")
        self._started = True
        obs = self._observe(self.state)
        yield 0.0, obs, np.zeros_like(self.total_jumps)
        while self.n + self.spp <= self.n_steps:
            since = np.zeros_like(self.total_jumps)
            if not self.trapped.all():
                self.state, since = self._advance(self.state, self.spp)
                since[self.trapped] = 0
            self.n += self.spp
            t = self.n * self.dt
            fresh = self._observe(self.state)
            if self._trap:
                for new, old in zip(fresh, obs):
                    new[self.trapped] = old[self.trapped]
                dark = is_dark(fresh[0]) & ~self.trapped
                for k in np.flatnonzero(dark):
                    self.trapped_at[k] = t
                self.trapped |= dark
            obs = fresh
            self.total_jumps += since
            yield t, obs, since

    def finish(self) -> np.ndarray:
        """Take the steps after the last sample; returns each row's jump
        count over the whole horizon. Only for an exhausted path."""
        if not self._started or self.n + self.spp <= self.n_steps:
            raise RuntimeError("finish() on a path with samples left")
        if not self.trapped.all():
            self.state, since = self._advance(self.state, self.n_steps - self.n)
            self.total_jumps += since * ~self.trapped
        self.n = self.n_steps
        return self.total_jumps


def row_ensemble(state, advance_once, observe, traj: TrajectoryConfig, step: StepConfig, streams,
                 trap: bool = False) -> SamplePath:
    """The :class:`SamplePath` of one batch row of ``state`` per entry of
    ``streams``, for both trajectory engines: row k draws from the Philox
    stream ``streams[k]`` of the seed, so it replays alone. Each step of the
    path is ``advance_once(state, rng)``, returning (new state, jumped index
    array) as :func:`advance` does; the path counts each row's jumps."""
    rng = RowStreams(traj.seed, streams)
    rows = len(rng.generators)
    if rows > 1:  # a single row keeps no batch axis: small 2-d arrays step 3-5 % faster
        state = np.broadcast_to(state, (rows,) + state.shape).copy()

    def advance_k(x, k):
        counts = np.zeros(rows, dtype=np.int64)
        for _ in range(k):
            x, jumped = advance_once(x, rng)
            if len(jumped):
                counts += np.bincount(jumped[:, 0], minlength=rows) if rows > 1 else len(jumped)
        return x, counts

    return SamplePath(state, advance_k, observe, traj, step, rows, trap=trap)


def batch_samples(
    geometry: LatticeGeometry,
    params,
    traj: TrajectoryConfig,
    step: StepConfig,
    streams,
) -> SamplePath:
    """The :func:`row_ensemble` path of one batch row per entry of
    ``params`` from the configured initial state, with the dark-state trap;
    it yields (t, (bloch, sxx), jumps): the (m, n_sites, 3) Bloch vectors,
    the (m,) factorized Sxx and the (m,) jumps since the previous sample.

    Row k draws from the Philox stream ``streams[k]`` of the seed, so it is
    bit-identical to ``run_trajectory(..., stream=streams[k])``. The run
    builds one drift kernel and drops it, buffers and all, when it ends.
    """
    m = len(params)
    p = _stack_params(params)
    kernel = _DriftKernel(geometry, p)

    def observe(a):
        bloch = bloch_vectors(a).reshape(m, -1, 3)
        return bloch, instantaneous_structure_factor(bloch[..., 0])

    amps = initial_product_state(traj, geometry.n_sites)
    return row_ensemble(amps, lambda a, rng: advance(a, geometry, p, step, rng, kernel), observe,
                        traj, step, streams, trap=True)


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
    samples = TrajectoryStream(batch_samples(geometry, [p], traj, step, [stream]))
    return TrajectoryResult(list(samples), samples.trapped_at, samples.finish())

