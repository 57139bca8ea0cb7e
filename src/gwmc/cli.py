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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .dynamics import (
    ModelParams,
    RngStream,
    RowStreams,
    StepConfig,
    TrajectoryConfig,
    batch_samples,
    run_trajectory,
    whole_steps,
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
from .oracle import MAX_DENSE_SITES, MAX_SITES, DenseLindblad, full_wfmc_trajectory, oracle_report

ENGINES = ("gutzwiller", "fullwfmc", "exact")
WORKERS_ENV = "GWMC_WORKERS"


def _fmt(x) -> str:
    """Serialize a number with 12 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
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
    max_jump_prob: float = 0.05
    seed: int = 1
    initial_state: str = "plus_x"
    engine: str = "gutzwiller"
    workers: int = 0  # 0: resolve from the environment, then 1
    out: str = "gwmc"

    def __post_init__(self):
        for f in fields(self):
            if f.type in (float, "float") and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.dt > 0:  # StepConfig refuses the rest
            for span in (self.t_total, self.sample_interval):
                whole_steps(span, self.dt)
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"lattice dimensions must be positive, got {self.width}x{self.height}")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.workers == 0:
            self.workers = _convert(WORKERS_ENV, int, os.environ.get(WORKERS_ENV, "1"))
        if self.workers < 1:
            raise ConfigError(f"workers must be positive, got {self.workers}")
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
        return StepConfig(dt=self.dt, max_jump_prob=self.max_jump_prob)

    def to_mapping(self) -> dict[str, str]:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = _fmt(value) if isinstance(value, float) else str(value)
        return out

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "RunConfig":
        """Build from a flat string mapping; unknown keys are ignored so a
        metadata file can be fed straight back in as a config."""
        kwargs = {
            f.name: _convert(f.name, f.type, mapping[f.name]) for f in fields(cls) if f.name in mapping
        }
        return cls(**kwargs)


def _convert(name: str, type_name, raw: str):
    for kind in (int, float):
        if type_name in (kind, kind.__name__):
            try:
                return kind(raw)
            except ValueError:
                raise ConfigError(f"{name} must be {kind.__name__}, got {raw!r}") from None
    return raw


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


def _base_meta(cfg: RunConfig, command: str) -> dict[str, str]:
    meta = {"command": command}
    meta.update(cfg.to_mapping())
    meta["code_version"] = __version__
    meta["rng_algorithm"] = RngStream.ALGORITHM
    return meta


# -- run -------------------------------------------------------------------

def _series_rows(samples, n_sites: int):
    for s in samples:
        mx, my, mz = magnetization(s.bloch)
        if s.sxx_inst is not None:
            sxx = s.sxx_inst
        elif n_sites > 1:
            sxx = instantaneous_structure_factor(s.bloch[:, 0])
        else:
            sxx = 0.0
        yield (s.time, mx, my, mz, sxx, s.jumps_in_interval)


def _write_series(path, samples, n_sites: int) -> None:
    with open(path, "w") as fh:
        fh.write("time,Mx,My,Mz,Sxx_inst,jumps_this_interval\n")
        for t, mx, my, mz, sxx, jumps in _series_rows(samples, n_sites):
            fh.write(f"{_fmt(t)},{_fmt(mx)},{_fmt(my)},{_fmt(mz)},{_fmt(sxx)},{int(jumps)}\n")


def _run_engine(cfg: RunConfig):
    """Run the configured engine; returns (samples, extra-metadata dict)."""
    geometry = cfg.geometry()
    p = cfg.model()
    traj = cfg.trajectory()
    step = cfg.step()
    if cfg.engine == "gutzwiller":
        result = run_trajectory(geometry, p, traj, step)
        extra = {"total_jumps": str(result.total_jumps)}
        if result.trapped_at is not None:
            extra["trapped_at"] = _fmt(result.trapped_at)
        return result.samples, extra
    if cfg.engine == "fullwfmc":
        result = full_wfmc_trajectory(geometry, p, traj, step)
        return result.samples, {"total_jumps": str(result.total_jumps)}
    return list(DenseLindblad(geometry, p).iter_samples(traj, step)), {}


def cmd_run(cfg: RunConfig) -> int:
    samples, extra = _run_engine(cfg)
    _write_series(f"{cfg.out}_series.csv", samples, cfg.width * cfg.height)
    meta = _base_meta(cfg, "run")
    meta.update(extra)
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
    rng = RowStreams(RngStream(traj.seed, stream).generator() for *_, stream in rows)
    sxx = [[] for _ in rows]
    mx_abs = [[] for _ in rows]
    for t, bloch, _ in batch_samples(cfg.geometry(), [r[0].model() for r in rows], traj, cfg.step(), rng):
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


def cmd_sweep(sweep: SweepConfig) -> int:
    rows = run_sweep(sweep)
    out = sweep.base.out
    with open(f"{out}_sweep.csv", "w") as fh:
        fh.write("jy,L,Sxx_k0,Sxx_stderr,Mx_abs_mean,sample_count,trajectories\n")
        for r in rows:
            fh.write(
                f"{_fmt(r['jy'])},{r['L']},{_fmt(r['Sxx_k0'])},{_fmt(r['Sxx_stderr'])},"
                f"{_fmt(r['Mx_abs_mean'])},{r['sample_count']},{r['trajectories']}\n"
            )
    meta = _base_meta(sweep.base, "sweep")
    meta["param"] = sweep.param
    meta["values"] = ",".join(_fmt(v) for v in sweep.values)
    meta["trajectories"] = str(sweep.trajectories)
    meta["averaging"] = "time" if sweep.trajectories == 1 else "ensemble_of_time_means"
    write_meta(f"{out}_meta.txt", meta)
    print(f"wrote {out}_sweep.csv and {out}_meta.txt")
    return 0


# -- correlate ---------------------------------------------------------------

def cmd_correlate(cfg: RunConfig) -> int:
    if cfg.engine != "gutzwiller":
        raise ConfigError("the correlation profile uses the factorized estimator; set engine = gutzwiller")
    geometry = cfg.geometry()
    result = run_trajectory(geometry, cfg.model(), cfg.trajectory(), cfg.step())
    profile = correlation_profile(result.samples, geometry)
    with open(f"{cfg.out}_corr.csv", "w") as fh:
        fh.write("dx,dy,distance,corr_xx,stderr,pair_count,axis_flag\n")
        for i, c in enumerate(profile.classes):
            fh.write(
                f"{c.dx},{c.dy},{_fmt(c.distance)},{_fmt(profile.mean[i])},"
                f"{_fmt(profile.stderr[i])},{c.pair_count},{int(c.is_axis)}\n"
            )
    meta = _base_meta(cfg, "correlate")
    meta["n_samples"] = str(profile.n_samples)
    if result.trapped_at is not None:
        meta["trapped_at"] = _fmt(result.trapped_at)
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
    meta = _base_meta(cfg, "mf-curve")
    meta["values"] = ",".join(_fmt(v) for v in values)
    transition = mf_transition_point(cfg.jx, cfg.jz, cfg.gamma)
    meta["transition_jy"] = "none" if transition is None else _fmt(transition)
    write_meta(f"{cfg.out}_meta.txt", meta)
    print(f"wrote {cfg.out}_mf.csv and {cfg.out}_meta.txt")
    return 0


# -- oracle-check --------------------------------------------------------------

def cmd_oracle_check(cfg: RunConfig, sites: int, trajectories: int,
                     t_total: float, corrupt_jumps: bool) -> int:
    report = oracle_report(
        sites,
        cfg.model(),
        t_total=t_total,
        n_traj=trajectories,
        seed=cfg.seed,
        dt=cfg.dt,
        corrupt_jumps=corrupt_jumps,
    )
    for line in report.lines():
        print(line)
    return 0 if report.passed else 2


# -- argument parsing ----------------------------------------------------------

def _add_config_flags(sub):
    """One flag per RunConfig field, plus --config."""
    sub.add_argument("--config", help="flat key = value config file")
    for f in fields(RunConfig):
        sub.add_argument(
            "--" + f.name.replace("_", "-"),
            type={"int": int, "float": float}.get(f.type),
            choices=ENGINES if f.name == "engine" else None,
        )


def _config_from_args(args) -> RunConfig:
    mapping = {}
    if args.config:
        mapping.update(parse_kv_file(args.config))
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            mapping[f.name] = str(value)
    return RunConfig.from_mapping(mapping)


def _parse_values(raw: str):
    entries = raw.split(",")
    if any(not v.strip() for v in entries):
        raise ConfigError(f"value list {raw!r} has an empty entry")
    try:
        return tuple(float(v) for v in entries)
    except ValueError as err:
        raise ConfigError(f"bad value list {raw!r}: {err}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gwmc", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("run", "correlate"):
        sub = subs.add_parser(name)
        _add_config_flags(sub)

    sweep = subs.add_parser("sweep")
    _add_config_flags(sweep)
    sweep.add_argument("--param", choices=("jy", "size"))
    sweep.add_argument("--values", help="comma-separated sweep values")
    sweep.add_argument("--trajectories", type=int)

    mf = subs.add_parser("mf-curve")
    _add_config_flags(mf)
    mf.add_argument("--values", help="comma-separated Jy grid (default 1.0..2.5 step 0.025)")

    oracle = subs.add_parser("oracle-check")
    _add_config_flags(oracle)
    oracle.add_argument("--sites", type=int, default=2, choices=(1, 2, 4))
    oracle.add_argument("--trajectories", type=int, default=4000)
    oracle.add_argument("--corrupt-jumps", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_config_from_args(args))
        if args.command == "correlate":
            return cmd_correlate(_config_from_args(args))
        if args.command == "sweep":
            file_kv = parse_kv_file(args.config) if args.config else {}
            param = args.param or file_kv.get("param", "jy")
            raw_values = args.values if args.values is not None else file_kv.get("values")
            if raw_values is None:
                raise ConfigError("sweep needs --values")
            trajectories = (args.trajectories if args.trajectories is not None
                            else _convert("trajectories", int, file_kv.get("trajectories", "1")))
            sweep = SweepConfig(
                base=_config_from_args(args),
                param=param,
                values=_parse_values(raw_values),
                trajectories=trajectories,
            )
            return cmd_sweep(sweep)
        if args.command == "mf-curve":
            file_kv = parse_kv_file(args.config) if args.config else {}
            raw_values = args.values if args.values is not None else file_kv.get("values")
            values = (tuple(np.arange(1.0, 2.5001, 0.025)) if raw_values is None
                      else _parse_values(raw_values))
            return cmd_mf_curve(_config_from_args(args), values)
        if args.command == "oracle-check":
            # the consistency checks live on a short horizon, not a production one
            t_total = args.t_total if args.t_total is not None else 10.0
            return cmd_oracle_check(
                _config_from_args(args), args.sites, args.trajectories, t_total, args.corrupt_jumps
            )
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InsufficientDataError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
