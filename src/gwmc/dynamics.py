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

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .lattice import LatticeGeometry
from .observables import Accumulator, Sample
from .state import bloch_vectors, is_dark, load_state_csv, plus_x_state, renormalize, save_state_csv

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


def mean_fields(amps: np.ndarray, geometry: LatticeGeometry) -> np.ndarray:
    """B_i^alpha = sum over neighbors j of <sigma_j^alpha>, shape (..., n, 3)."""
    return bloch_vectors(amps)[..., geometry.neighbor_table, :].sum(axis=-2)


def _derivatives(amps: np.ndarray, geometry: LatticeGeometry, p: ModelParams) -> np.ndarray:
    """d psi / dt = -i h(Psi) psi evaluated sitewise from the given snapshot."""
    b = mean_fields(amps, geometry)
    a = p.jx * b[..., 0]
    c = p.jy * b[..., 1]
    e = p.jz * b[..., 2]
    u = amps[..., 0]
    d = amps[..., 1]
    off = a - 1j * c  # upper off-diagonal of h
    out = np.empty_like(amps)
    out[..., 0] = -1j * ((e - 0.5j * p.gamma) * u + off * d)
    out[..., 1] = -1j * (np.conj(off) * u - e * d)
    return out


def _rk4(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of dy/dt = f(y), shared by all three engines."""
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    mask = None if active is None else active[..., None].astype(float)

    def f(x):
        k = _derivatives(x, geometry, p)
        return k if mask is None else k * mask

    return renormalize(_rk4(f, amps, dt))


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
    seed: int
    stream: int

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
    n_steps = int(round(traj.t_total / step.dt))
    spp = int(round(traj.sample_interval / step.dt))

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
    if m > 1:  # a single row keeps no batch axis: small 2-d arrays step ~20% faster
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
    return TrajectoryResult(samples, trapped_at, int(totals[0]), traj.seed, stream)


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


# -- checkpointing ------------------------------------------------------------

def save_checkpoint(prefix: str, amps: np.ndarray, t: float,
                    rng: np.random.Generator, accumulator: Accumulator | None = None) -> None:
    """Write a resumable snapshot: state CSV plus a key-value resume record
    holding the time, the full bit-generator state, and accumulator partials."""
    save_state_csv(f"{prefix}_state.csv", amps)
    st = rng.bit_generator.state
    kv = {
        "time": repr(float(t)),
        "rng_algorithm": st["bit_generator"],
        "rng_counter": ",".join(str(v) for v in st["state"]["counter"]),
        "rng_key": ",".join(str(v) for v in st["state"]["key"]),
        "rng_buffer": ",".join(str(v) for v in st["buffer"]),
        "rng_buffer_pos": str(st["buffer_pos"]),
        "rng_has_uint32": str(st["has_uint32"]),
        "rng_uinteger": str(st["uinteger"]),
    }
    if accumulator is not None:
        kv.update(accumulator.to_kv())
    with open(f"{prefix}_resume.txt", "w") as fh:
        for key, value in kv.items():
            fh.write(f"{key} = {value}\n")


def load_checkpoint(prefix: str) -> tuple[np.ndarray, float, np.random.Generator, Accumulator]:
    amps = load_state_csv(f"{prefix}_state.csv")
    kv = {}
    with open(f"{prefix}_resume.txt") as fh:
        for line in fh:
            if "=" in line:
                key, _, value = line.partition("=")
                kv[key.strip()] = value.strip()
    if kv.get("rng_algorithm") != "Philox":
        raise ConfigError(f"unsupported bit generator in resume record: {kv.get('rng_algorithm')}")
    bitgen = np.random.Philox()
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([int(v) for v in kv["rng_counter"].split(",")], dtype=np.uint64),
            "key": np.array([int(v) for v in kv["rng_key"].split(",")], dtype=np.uint64),
        },
        "buffer": np.array([int(v) for v in kv["rng_buffer"].split(",")], dtype=np.uint64),
        "buffer_pos": int(kv["rng_buffer_pos"]),
        "has_uint32": int(kv["rng_has_uint32"]),
        "uinteger": int(kv["rng_uinteger"]),
    }
    acc = Accumulator.from_kv({k: v for k, v in kv.items() if k.startswith("acc_")})
    return amps, float(kv["time"]), np.random.Generator(bitgen), acc
