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
from dataclasses import dataclass, field, fields, replace
from itertools import islice

import numpy as np

from . import __version__
from .dynamics import (
    ModelParams,
    RngStream,
    StepConfig,
    TrajectoryConfig,
    TrajectoryStream,
    _check_jump_ceiling,
    batch_samples,
    cadence,
    initial_product_state,
)
from .errors import ConfigError, InsufficientDataError, NumericsError
from .lattice import build_lattice
from .observables import (
    batch_means,
    correlation_profile,
    ensemble_means,
    magnetization,
    mf_structure_factor,
    mf_transition_point,
)
from .oracle import _GEOMETRY_FOR_SITES, MAX_DENSE_SITES, MAX_SITES, DenseLindblad, FullWfmc, oracle_report

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


def _check_manifold_estimate(cfg: RunConfig, estimate: str, sites: int, needed: int) -> None:
    """Refuse, before any file or step, a manifold estimate that cannot be
    made: on another engine, on fewer than 2 sites (one site has no pair),
    or from fewer than ``needed`` samples at or after burn_in."""
    if cfg.engine != "gutzwiller":
        raise ConfigError(f"{estimate} is taken on manifold trajectories; set engine = gutzwiller")
    if sites < 2:
        raise ConfigError(f"{estimate} needs at least 2 sites, got {sites}")
    spp, n_steps, first = cadence(cfg.trajectory(), cfg.step())
    kept = max(0, n_steps // spp + 1 - first)
    if kept < needed:
        raise InsufficientDataError(f"only {kept} post-burn-in samples, need {needed}" if kept
                                    else f"no sample at or after burn_in = {cfg.burn_in:g}")


# -- run -------------------------------------------------------------------

def _engine_path(cfg: RunConfig, geometry):
    """The configured engine's one-row path on ``geometry``, stream 0."""
    p, traj, step = cfg.model(), cfg.trajectory(), cfg.step()
    if cfg.engine == "gutzwiller":
        return batch_samples(geometry, [p], traj, step, [0])
    if cfg.engine == "fullwfmc":
        return FullWfmc(geometry, p).path(traj, step, [0])
    return DenseLindblad(geometry, p).path(traj, step)


def cmd_run(cfg: RunConfig) -> int:
    samples = TrajectoryStream(_engine_path(cfg, cfg.geometry()))

    def rows():
        for s in samples:
            yield (s.time, *magnetization(s.bloch), s.sxx_inst, int(s.jumps_in_interval))

    def meta():
        meta = _base_meta(cfg, "run")
        if cfg.engine != "exact":  # a trajectory, now exhausted: its steps after the last sample count
            meta["total_jumps"] = str(samples.finish())
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
    configs: list = field(init=False)  # each point's RunConfig, in value order

    def __post_init__(self):
        if self.param not in ("jy", "size"):
            raise ConfigError(f"sweep parameter must be 'jy' or 'size', got {self.param!r}")
        if len(self.values) == 0:
            raise ConfigError("sweep needs a non-empty value list")
        if self.trajectories < 1:
            raise ConfigError("trajectories must be positive")
        if self.base.workers < 1:
            raise ConfigError(f"workers must be positive, got {self.base.workers}")
        if self.param == "size" and not all(float(v).is_integer() and v >= 1 for v in self.values):
            raise ConfigError(f"sizes must be positive integers, got {self.values}")
        sites = int(min(self.values)) ** 2 if self.param == "size" else self.base.width * self.base.height
        needed = 2 if self.trajectories == 1 else 1  # a time average needs 2
        _check_manifold_estimate(self.base, "a sweep's structure factor", sites, needed)
        self.configs = [replace(self.base, jy=float(v)) if self.param == "jy"
                        else replace(self.base, width=int(v), height=int(v)) for v in self.values]
        for cfg in {(c.width, c.height): c for c in self.configs}.values():  # each task resolves it again;
            initial_product_state(cfg.trajectory(), cfg.width * cfg.height)  # here only to refuse it early


def _sweep_task(rows):
    """One chunk of ((point, trajectory), cfg, stream) rows that share a
    lattice, advanced as one batch with a stream per row; returns each row's
    key with its post-burn-in Sxx_inst and |Mx| series as plain arrays."""
    keys, configs, streams = zip(*rows)
    cfg = configs[0]
    path = batch_samples(cfg.geometry(), [c.model() for c in configs], cfg.trajectory(), cfg.step(), streams)
    kept = [(sxx, np.abs(magnetization(b)[:, 0])) for _, (b, sxx), _ in islice(path, path.first_kept, None)]
    sxx, mx_abs = (np.stack(series, axis=-1) for series in zip(*kept))  # (rows, samples) each
    return [(key, (s, x)) for key, s, x in zip(keys, sxx, mx_abs)]


def run_sweep(sweep: SweepConfig):
    """Run every (point, trajectory) row and aggregate per point.

    Rows that share a lattice form one group (a jy sweep is one group, a size
    sweep one per size); row r of a group goes to chunk r mod ``workers``, one
    batch each. Row (i, k) owns stream i*T + k, so it is bit-identical to the
    solo trajectory on that stream and results do not depend on the chunking.
    The rows' series, sorted by key, stack into one (points, trajectories,
    samples) array each for Sxx and |Mx|, and every column of the result
    comes from one call: ``batch_means`` of each point's one trajectory, or
    ``ensemble_means`` of its trajectories' time means.
    """
    workers = sweep.base.workers
    groups: dict[tuple[int, int], list] = {}
    for i, cfg in enumerate(sweep.configs):
        group = groups.setdefault((cfg.width, cfg.height), [])
        group.extend(((i, k), cfg, i * sweep.trajectories + k) for k in range(sweep.trajectories))
    chunks = []
    for group in groups.values():
        n_chunks = min(workers, len(group))
        chunks.extend(group[c::n_chunks] for c in range(n_chunks))
    pool_size = min(workers, len(chunks))  # a fork pool starts all its workers at once
    if pool_size > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled sweep pays for its import

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            done = list(pool.map(_sweep_task, chunks))
    else:
        done = map(_sweep_task, chunks)
    done = sorted(row for chunk in done for row in chunk)  # by (point, trajectory), each key once
    shape = (len(sweep.configs), sweep.trajectories, -1)
    sxx, mx = (np.stack(series).reshape(shape) for series in zip(*(row for _, row in done)))
    est, se = batch_means(sxx[:, 0]) if sweep.trajectories == 1 else ensemble_means(sxx.mean(axis=-1))
    mx_mean = mx.reshape(len(sweep.configs), -1).mean(axis=-1)
    return [{"jy": cfg.jy, "L": cfg.width, "Sxx_k0": e, "Sxx_stderr": s, "Mx_abs_mean": x,
             "sample_count": sxx[0].size, "trajectories": sweep.trajectories}
            for cfg, e, s, x in zip(sweep.configs, est, se, mx_mean)]


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
    _check_manifold_estimate(cfg, "a correlation profile", cfg.width * cfg.height, 2)  # for the batch-means errors
    geometry = cfg.geometry()
    samples = TrajectoryStream(_engine_path(cfg, geometry))
    profile = None

    def rows():
        nonlocal profile
        profile = correlation_profile(samples, geometry)  # keeps one class-by-sample buffer
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
        values = tuple(float(v) for v in entries)
    except ValueError as err:
        raise ConfigError(f"bad value list {raw!r}: {err}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"value list {raw!r} has a non-finite entry")
    return values


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
        cfg = RunConfig.from_mapping(text)
        if "dt" in COMMANDS[args.command] and cfg.engine != "exact":  # it steps first-order jumps
            _check_jump_ceiling(cfg.gamma, cfg.dt)
        return handler(cfg, **own)
    except (ConfigError, InsufficientDataError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
