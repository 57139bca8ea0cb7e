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


def _base_meta(cfg: RunConfig, command: str, **own) -> dict[str, str]:
    """The command and each key it read, so the file works as --config."""
    read = {key: _fmt(own[key] if key in own else getattr(cfg, key)) for key in COMMANDS[command]}
    return {"command": command, **read, "code_version": __version__, "rng_algorithm": RngStream.ALGORITHM}


def _write_outputs(out: str, kind: str, header: str, rows, meta) -> None:
    """Write ``<out>_<kind>.csv``, each row as ``rows`` yields it, then
    ``<out>_meta.txt`` from ``meta()``, into ``.part`` files opened before the
    first row is computed; they take their names once both are whole, so a
    failing command leaves no file. An unwritable path is a ConfigError."""
    paths = (f"{out}_{kind}.csv", f"{out}_meta.txt")
    parts = [f"{path}.part" for path in paths]
    files, ours = [], []  # ours: the files this call made, removed if anything fails
    try:
        for part in parts:
            files.append(open(part, "w"))
            ours.append(part)
        csv, txt = files
        csv.write(header + "\n")
        csv.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
        txt.writelines(f"{key} = {value}\n" for key, value in meta().items())
        for i in (1, 0):  # the meta first: no CSV stands without its meta
            files[i].close()
            os.replace(parts[i], paths[i])
            ours[i] = paths[i]
    except BaseException as err:
        for fh in files:
            fh.close()
        for path in ours:
            os.remove(path)
        if isinstance(err, OSError) and err.filename in parts:  # opening or renaming one of ours
            raise ConfigError(f"cannot write {err.filename2 or err.filename}: {err.strerror}") from None
        raise
    print(f"wrote {paths[0]} and {paths[1]}")


# -- run -------------------------------------------------------------------

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

    def rows():
        for s in samples:
            sxx = s.sxx_inst
            if sxx is None:
                sxx = instantaneous_structure_factor(s.bloch[:, 0]) if len(s.bloch) > 1 else 0.0
            yield (s.time, *magnetization(s.bloch), sxx, int(s.jumps_in_interval))

    def meta():
        meta = _base_meta(cfg, "run")
        if cfg.engine != "exact":  # a trajectory stream, now exhausted
            meta["total_jumps"] = str(samples.total_jumps)
            if samples.trapped_at is not None:
                meta["trapped_at"] = _fmt(samples.trapped_at)
        return meta

    _write_outputs(cfg.out, "series", "time,Mx,My,Mz,Sxx_inst,jumps_this_interval", rows(), meta)
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
        spp, n_steps = cadence(self.base.trajectory(), self.base.step())
        if n_steps // spp * spp * self.base.dt < self.base.burn_in:  # the last sample's time, as the path takes it
            raise InsufficientDataError(f"no sample at or after burn_in = {self.base.burn_in:g}")

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
    pool_size = min(workers, len(chunks))  # a fork pool starts all its workers at once
    if pool_size > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled sweep pays for its import

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
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
        rows.append({"jy": cfg.jy, "L": cfg.width, "Sxx_k0": est, "Sxx_stderr": se,
                     "Mx_abs_mean": float(mx_all.mean()), "sample_count": n_samples,
                     "trajectories": sweep.trajectories})
    return rows


def cmd_sweep(cfg: RunConfig, **keys) -> int:
    sweep = SweepConfig(cfg, **keys)

    def rows():  # the sweep runs once the files are open
        yield from map(dict.values, run_sweep(sweep))

    averaging = "time" if sweep.trajectories == 1 else "ensemble_of_time_means"
    _write_outputs(cfg.out, "sweep", "jy,L,Sxx_k0,Sxx_stderr,Mx_abs_mean,sample_count,trajectories", rows(),
                   lambda: {**_base_meta(cfg, "sweep", **keys), "averaging": averaging})
    return 0


# -- correlate ---------------------------------------------------------------

def cmd_correlate(cfg: RunConfig) -> int:
    if cfg.engine != "gutzwiller":
        raise ConfigError("the correlation profile uses the factorized estimator; set engine = gutzwiller")
    if cfg.width * cfg.height < 2:
        raise ConfigError(f"a correlation profile needs at least 2 sites, got {cfg.width}x{cfg.height}")
    geometry = cfg.geometry()
    samples = trajectory_stream(geometry, cfg.model(), cfg.trajectory(), cfg.step())
    profile = None

    def rows():
        nonlocal profile
        profile = correlation_profile(samples, geometry)  # keeps one class row per sample
        for c, mean, se in zip(profile.classes, profile.mean, profile.stderr):
            yield c.dx, c.dy, c.distance, mean, se, c.pair_count, int(c.is_axis)

    def meta():
        meta = {**_base_meta(cfg, "correlate"), "n_samples": str(profile.n_samples)}
        if samples.trapped_at is not None:
            meta["trapped_at"] = _fmt(samples.trapped_at)
        return meta

    _write_outputs(cfg.out, "corr", "dx,dy,distance,corr_xx,stderr,pair_count,axis_flag", rows(), meta)
    return 0


# -- mf-curve ----------------------------------------------------------------

def cmd_mf_curve(cfg: RunConfig, values) -> int:
    rows = ((jy, mf_structure_factor(ModelParams(cfg.jx, float(jy), cfg.jz, cfg.gamma))) for jy in values)
    transition = mf_transition_point(cfg.jx, cfg.jz, cfg.gamma)
    _write_outputs(cfg.out, "mf", "jy,Sxx_mf", rows, lambda: {**_base_meta(cfg, "mf-curve", values=values),
                   "transition_jy": "none" if transition is None else _fmt(transition)})
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
