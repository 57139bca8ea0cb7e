"""Command-line front end: single runs, parameter sweeps, correlation
profiles, the mean-field reference curve, and the oracle consistency check.

Configuration is a flat key = value mapping; a config file (--config) is
overlaid by command-line flags. Every command writes CSV data plus a
metadata file from which the run can be reproduced exactly: fixed configs
give byte-identical CSVs, independent of the worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .dynamics import (
    ModelParams,
    RngStream,
    StepConfig,
    TrajectoryConfig,
    batch_samples,
    cadence,
    trajectory_stream,
)
from .errors import ConfigError, InsufficientDataError, NumericsError
from .lattice import build_lattice
from .observables import (
    batch_means,
    correlation_profile,
    instantaneous_structure_factor,
    magnetization,
    mf_structure_factor,
    mf_transition_point,
)
from .oracle import (_GEOMETRY_FOR_SITES, MAX_DENSE_SITES, MAX_SITES, DenseLindblad,
                     full_wfmc_stream, oracle_report)

ENGINES = ("gutzwiller", "fullwfmc", "exact")


def _fmt(x) -> str:
    """Serialize a number with 12 significant digits; text passes, a value
    list is comma-separated."""
    if isinstance(x, tuple):
        return ",".join(map(_fmt, x))
    if isinstance(x, (int, np.integer, str)):
        return str(x)
    return f"{float(x):.12g}"


@dataclass
class RunConfig:
    width: int = 6
    height: int = 6
    jx: float = 0.9
    jy: float = 1.2
    jz: float = 1.0
    gamma: float = 1.0
    t_total: float = 2000.0
    burn_in: float = 200.0
    sample_interval: float = 1.0
    dt: float = 0.01
    seed: int = 1
    initial_state: str = "plus_x"
    engine: str = "gutzwiller"
    workers: int = 1  # sweep pool size
    out: str = "gwmc"

    def __post_init__(self):
        for f in fields(self):
            if f.type in (float, "float") and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        # the seed and the sampling cadence, refused before any work; burn_in
        # is checked by the commands that read it
        cadence(TrajectoryConfig(self.t_total, sample_interval=self.sample_interval, seed=self.seed), self.step())
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"lattice dimensions must be positive, got {self.width}x{self.height}")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        cap = {"fullwfmc": MAX_SITES, "exact": MAX_DENSE_SITES}.get(self.engine)
        if cap is not None and self.width * self.height > cap:
            raise ConfigError(
                f"engine {self.engine!r} is capped at {cap} sites, got {self.width * self.height}"
            )

    def geometry(self):
        return build_lattice(self.width, self.height)

    def model(self) -> ModelParams:
        return ModelParams(self.jx, self.jy, self.jz, self.gamma)

    def trajectory(self) -> TrajectoryConfig:
        return TrajectoryConfig(
            t_total=self.t_total,
            burn_in=self.burn_in,
            sample_interval=self.sample_interval,
            seed=self.seed,
            initial_state=self.initial_state,
        )

    def step(self) -> StepConfig:
        return StepConfig(dt=self.dt)

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "RunConfig":
        """Build from a flat string mapping; unknown keys are ignored so a
        metadata file can be fed straight back in as a config."""
        kwargs = {
            f.name: _convert(f.name, _KINDS[f.name], mapping[f.name]) for f in fields(cls) if f.name in mapping
        }
        return cls(**kwargs)


def _convert(name: str, kind, raw: str):
    """A key's text as its kind; the value-list parser raises its own errors."""
    try:
        return kind(raw)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"{name} must be {kind.__name__}, got {raw!r}") from None


def parse_kv_file(path) -> dict[str, str]:
    """Flat key = value file; '#' starts a comment, unknown keys are kept."""
    try:
        fh = open(path)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err.strerror}") from None
    out = {}
    with fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line (expected key = value): {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def write_meta(path, mapping: dict[str, str]) -> None:
    with open(path, "w") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {value}\n")


def _base_meta(cfg: RunConfig, command: str, **own) -> dict[str, str]:
    """The command and each key it read, so the file works as --config."""
    read = {key: _fmt(own[key] if key in own else getattr(cfg, key)) for key in COMMANDS[command]}
    return {"command": command, **read, "code_version": __version__, "rng_algorithm": RngStream.ALGORITHM}


# -- run -------------------------------------------------------------------

def _write_series(path, samples, n_sites: int) -> None:
    """Write each sample's row as it arrives, into a file beside ``path``
    that becomes ``path`` after the last row: a run that fails writes
    nothing."""
    part = f"{path}.part"
    try:
        with open(part, "w") as fh:
            fh.write("time,Mx,My,Mz,Sxx_inst,jumps_this_interval\n")
            for s in samples:
                mx, my, mz = magnetization(s.bloch)
                sxx = s.sxx_inst
                if sxx is None:
                    sxx = instantaneous_structure_factor(s.bloch[:, 0]) if n_sites > 1 else 0.0
                fh.write(f"{_fmt(s.time)},{_fmt(mx)},{_fmt(my)},{_fmt(mz)},{_fmt(sxx)},{int(s.jumps_in_interval)}\n")
        os.replace(part, path)
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        raise


def _engine_stream(cfg: RunConfig):
    """The configured engine's samples, as they are taken."""
    geometry, p = cfg.geometry(), cfg.model()
    traj, step = cfg.trajectory(), cfg.step()
    if cfg.engine == "gutzwiller":
        return trajectory_stream(geometry, p, traj, step)
    if cfg.engine == "fullwfmc":
        return full_wfmc_stream(geometry, p, traj, step)
    return DenseLindblad(geometry, p).iter_samples(traj, step)


def cmd_run(cfg: RunConfig) -> int:
    samples = _engine_stream(cfg)
    _write_series(f"{cfg.out}_series.csv", samples, cfg.width * cfg.height)
    meta = _base_meta(cfg, "run")
    if cfg.engine != "exact":  # a trajectory stream, now exhausted
        meta["total_jumps"] = str(samples.total_jumps)
        if samples.trapped_at is not None:
            meta["trapped_at"] = _fmt(samples.trapped_at)
    write_meta(f"{cfg.out}_meta.txt", meta)
    print(f"wrote {cfg.out}_series.csv and {cfg.out}_meta.txt")
    return 0


# -- sweep -----------------------------------------------------------------

@dataclass
class SweepConfig:
    base: RunConfig
    param: str = "jy"  # jy | size
    values: tuple = ()
    trajectories: int = 1

    def __post_init__(self):
        if self.param not in ("jy", "size"):
            raise ConfigError(f"sweep parameter must be 'jy' or 'size', got {self.param!r}")
        if len(self.values) == 0:
            raise ConfigError("sweep needs a non-empty value list")
        if self.trajectories < 1:
            raise ConfigError("trajectories must be positive")
        if self.base.workers < 1:
            raise ConfigError(f"workers must be positive, got {self.base.workers}")
        if self.base.engine != "gutzwiller":
            raise ConfigError("a sweep runs batched manifold trajectories; set engine = gutzwiller")
        if self.param == "size" and not all(float(v).is_integer() and v >= 1 for v in self.values):
            raise ConfigError(f"sizes must be positive integers, got {self.values}")

    def point_config(self, value) -> RunConfig:
        if self.param == "jy":
            return replace(self.base, jy=float(value))
        size = int(value)
        return replace(self.base, width=size, height=size)


def _sweep_task(rows):
    """One chunk of (cfg, point, trajectory, stream) rows that share a lattice,
    advanced as one batch with a stream per row; returns each row's
    post-burn-in Sxx_inst and |Mx| series as plain arrays for merging."""
    cfg = rows[0][0]
    traj = cfg.trajectory()
    sxx = [[] for _ in rows]
    mx_abs = [[] for _ in rows]
    streams = [r[3] for r in rows]
    for t, bloch, _ in batch_samples(cfg.geometry(), [r[0].model() for r in rows], traj, cfg.step(), streams):
        if t < traj.burn_in:
            continue
        for k, b in enumerate(bloch):
            sxx[k].append(instantaneous_structure_factor(b[:, 0]))
            mx_abs[k].append(abs(float(magnetization(b)[0])))
    return [(i, k, np.array(s), np.array(x)) for (_, i, k, _), s, x in zip(rows, sxx, mx_abs)]


def run_sweep(sweep: SweepConfig):
    """Run every (point, trajectory) row and aggregate per point.

    Rows that share a lattice form one group (a jy sweep is one group, a size
    sweep one per size); each group is split into at most ``workers``
    contiguous chunks, one batch each. Row (i, k) owns stream i*T + k, so it
    is bit-identical to the solo trajectory on that stream and results do not
    depend on the chunking; aggregation sorts by row before combining.
    """
    workers = sweep.base.workers
    groups: dict[tuple[int, int], list] = {}
    for i, value in enumerate(sweep.values):
        cfg = sweep.point_config(value)
        group = groups.setdefault((cfg.width, cfg.height), [])
        group.extend((cfg, i, k, i * sweep.trajectories + k) for k in range(sweep.trajectories))
    chunks = []
    for group in groups.values():
        n_chunks = min(workers, len(group))
        bounds = [len(group) * c // n_chunks for c in range(n_chunks + 1)]
        chunks.extend(group[a:b] for a, b in zip(bounds, bounds[1:]))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled sweep pays for its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = [r for chunk in pool.map(_sweep_task, chunks) for r in chunk]
    else:
        raw = [r for chunk in chunks for r in _sweep_task(chunk)]
    raw.sort(key=lambda r: (r[0], r[1]))

    rows = []
    for i, value in enumerate(sweep.values):
        series = [r for r in raw if r[0] == i]
        sxx_all = [r[2] for r in series]
        mx_all = np.concatenate([r[3] for r in series])
        n_samples = int(sum(len(s) for s in sxx_all))
        if sweep.trajectories == 1:
            est, se = batch_means(sxx_all[0])
        else:
            traj_means = np.array([s.mean() for s in sxx_all])
            est = float(traj_means.mean())
            se = float(traj_means.std(ddof=1) / np.sqrt(len(traj_means)))
        cfg = sweep.point_config(value)
        rows.append(
            {
                "jy": cfg.jy,
                "L": cfg.width,
                "Sxx_k0": est,
                "Sxx_stderr": se,
                "Mx_abs_mean": float(mx_all.mean()),
                "sample_count": n_samples,
                "trajectories": sweep.trajectories,
            }
        )
    return rows


def cmd_sweep(cfg: RunConfig, **keys) -> int:
    sweep = SweepConfig(cfg, **keys)
    rows = run_sweep(sweep)
    out = sweep.base.out
    with open(f"{out}_sweep.csv", "w") as fh:
        fh.write("jy,L,Sxx_k0,Sxx_stderr,Mx_abs_mean,sample_count,trajectories\n")
        for r in rows:
            fh.write(
                f"{_fmt(r['jy'])},{r['L']},{_fmt(r['Sxx_k0'])},{_fmt(r['Sxx_stderr'])},"
                f"{_fmt(r['Mx_abs_mean'])},{r['sample_count']},{r['trajectories']}\n"
            )
    meta = _base_meta(sweep.base, "sweep", **keys)
    meta["averaging"] = "time" if sweep.trajectories == 1 else "ensemble_of_time_means"
    write_meta(f"{out}_meta.txt", meta)
    print(f"wrote {out}_sweep.csv and {out}_meta.txt")
    return 0


# -- correlate ---------------------------------------------------------------

def cmd_correlate(cfg: RunConfig) -> int:
    if cfg.engine != "gutzwiller":
        raise ConfigError("the correlation profile uses the factorized estimator; set engine = gutzwiller")
    geometry = cfg.geometry()
    samples = trajectory_stream(geometry, cfg.model(), cfg.trajectory(), cfg.step())
    profile = correlation_profile(samples, geometry)  # keeps one class row per sample
    with open(f"{cfg.out}_corr.csv", "w") as fh:
        fh.write("dx,dy,distance,corr_xx,stderr,pair_count,axis_flag\n")
        for i, c in enumerate(profile.classes):
            fh.write(
                f"{c.dx},{c.dy},{_fmt(c.distance)},{_fmt(profile.mean[i])},"
                f"{_fmt(profile.stderr[i])},{c.pair_count},{int(c.is_axis)}\n"
            )
    meta = _base_meta(cfg, "correlate")
    meta["n_samples"] = str(profile.n_samples)
    if samples.trapped_at is not None:
        meta["trapped_at"] = _fmt(samples.trapped_at)
    write_meta(f"{cfg.out}_meta.txt", meta)
    print(f"wrote {cfg.out}_corr.csv and {cfg.out}_meta.txt")
    return 0


# -- mf-curve ----------------------------------------------------------------

def cmd_mf_curve(cfg: RunConfig, values) -> int:
    params = [ModelParams(cfg.jx, float(jy), cfg.jz, cfg.gamma) for jy in values]
    with open(f"{cfg.out}_mf.csv", "w") as fh:
        fh.write("jy,Sxx_mf\n")
        for jy, p in zip(values, params):
            fh.write(f"{_fmt(jy)},{_fmt(mf_structure_factor(p))}\n")
    meta = _base_meta(cfg, "mf-curve", values=values)
    transition = mf_transition_point(cfg.jx, cfg.jz, cfg.gamma)
    meta["transition_jy"] = "none" if transition is None else _fmt(transition)
    write_meta(f"{cfg.out}_meta.txt", meta)
    print(f"wrote {cfg.out}_mf.csv and {cfg.out}_meta.txt")
    return 0


# -- oracle-check --------------------------------------------------------------

def cmd_oracle_check(cfg: RunConfig, sites: int, trajectories: int) -> int:
    report = oracle_report(sites, cfg.model(), t_total=cfg.t_total, n_traj=trajectories,
                           seed=cfg.seed, dt=cfg.dt)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 2


# -- command table -------------------------------------------------------------

def _parse_values(raw: str):
    entries = raw.split(",")
    if any(not v.strip() for v in entries):
        raise ConfigError(f"value list {raw!r} has an empty entry")
    try:
        return tuple(float(v) for v in entries)
    except ValueError as err:
        raise ConfigError(f"bad value list {raw!r}: {err}") from None


_RUN_FIELDS = tuple(f.name for f in fields(RunConfig))
_KINDS = {f.name: {"int": int, "float": float}.get(f.type, str) for f in fields(RunConfig)}
_KINDS.update(param=str, values=_parse_values, trajectories=int, sites=int)
_CHOICES = {"engine": ENGINES, "param": ("jy", "size"), "sites": tuple(map(str, _GEOMETRY_FOR_SITES))}

# The keys each command reads, each both a flag and a --config key, with
# the command's default as config text; a key left at None takes the
# RunConfig field's own default, or the handler's.
_RUN_KEYS = dict.fromkeys(k for k in _RUN_FIELDS if k != "workers")  # one trajectory, no pool
COMMANDS = {
    "run": _RUN_KEYS,
    "correlate": _RUN_KEYS,
    "sweep": {**dict.fromkeys(_RUN_FIELDS), "param": "jy", "values": None, "trajectories": "1"},
    "mf-curve": {
        **dict.fromkeys(("jx", "jz", "gamma", "out")),
        "values": ",".join(str(float(v)) for v in np.arange(1.0, 2.5001, 0.025)),
    },
    # The checks live on a short horizon, not a production one. They read
    # no width, height or out, which the benchmark passes to every command.
    "oracle-check": {
        **dict.fromkeys(("width", "height", "jx", "jy", "jz", "gamma", "dt", "seed", "out")),
        "t_total": "10", "sites": "2", "trajectories": "4000",
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gwmc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, keys in COMMANDS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="flat key = value file; flags override it")
        for key in keys:
            sub.add_argument("--" + key.replace("_", "-"), choices=_CHOICES.get(key))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as done:  # --help and --version give 0, a parser error 1
        return 1 if done.code else 0
    # looked up per call, so that wrappers set on this module (a tracer) are seen
    handler = {"run": cmd_run, "correlate": cmd_correlate, "sweep": cmd_sweep,
               "mf-curve": cmd_mf_curve, "oracle-check": cmd_oracle_check}[args.command]
    try:
        file_kv = parse_kv_file(args.config) if args.config else {}
        text = {}
        for key, default in COMMANDS[args.command].items():
            for value in (getattr(args, key), file_kv.get(key), default):  # flag, file, default
                if value is not None:
                    text[key] = value
                    break
        own = {k: _convert(k, _KINDS[k], v) for k, v in text.items() if k not in _RUN_FIELDS}
        return handler(RunConfig.from_mapping(text), **own)
    except (ConfigError, InsufficientDataError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
