"""Output checks for the benchmark's CLI commands.

Each check reads what one command wrote (its output directory and standard
output) and raises CheckFailed when a header, a row count or a physical range
is wrong. CSV bytes are compared
only between runs of one commit (see run.py), never against pinned values:
a change of arithmetic order may legitimately move the last digits.
"""

from __future__ import annotations

import math
import os

TOL = 1e-9


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_csv(path: str, header: str) -> list[list[float]]:
    expect(os.path.isfile(path), f"missing output {os.path.basename(path)}")
    with open(path) as fh:
        lines = fh.read().splitlines()
    expect(bool(lines) and lines[0] == header,
           f"{os.path.basename(path)}: header {lines[:1]} is not {header!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    width = header.count(",") + 1
    expect(all(len(r) == width for r in rows), f"{os.path.basename(path)}: ragged rows")
    expect(all(math.isfinite(v) for r in rows for v in r), f"{os.path.basename(path)}: non-finite value")
    return rows


def read_meta(path: str) -> dict[str, str]:
    expect(os.path.isfile(path), f"missing output {os.path.basename(path)}")
    with open(path) as fh:
        return {k.strip(): v.strip() for k, _, v in (line.partition("=") for line in fh) if _}


def sample_count(t_total: float, burn_in: float, interval: float, post_burn_in: bool) -> int:
    """Samples at t = k * interval for 0 <= t <= t_total (burn_in lies between
    sample times, so the count does not hinge on rounding)."""
    n = int(round(t_total / interval)) + 1
    return n - (int(burn_in / interval) + 1) if post_burn_in else n


def in_sxx_range(value: float, n_sites: int) -> bool:
    return -1.0 / (n_sites - 1) - TOL <= value <= 1.0 + TOL


def check_series(out_dir: str, stdout: str, p) -> None:
    rows = read_csv(os.path.join(out_dir, "w_series.csv"),
                    "time,Mx,My,Mz,Sxx_inst,jumps_this_interval")
    n = p.width * p.height
    expect(len(rows) == sample_count(p.t_total, p.burn_in, p.sample_interval, False),
           f"series has {len(rows)} rows")
    for k, (t, mx, my, mz, sxx, jumps) in enumerate(rows):
        expect(abs(t - k * p.sample_interval) <= TOL, f"series row {k}: time {t}")
        expect(math.sqrt(mx * mx + my * my + mz * mz) <= 1.0 + TOL, f"series row {k}: |M| > 1")
        expect(in_sxx_range(sxx, n), f"series row {k}: Sxx_inst {sxx} out of range")
        expect(jumps >= 0 and jumps == int(jumps), f"series row {k}: jumps {jumps}")
    expect(read_meta(os.path.join(out_dir, "w_meta.txt")).get("command") == "run", "meta command")


def check_corr(out_dir: str, stdout: str, p) -> None:
    rows = read_csv(os.path.join(out_dir, "w_corr.csv"),
                    "dx,dy,distance,corr_xx,stderr,pair_count,axis_flag")
    n = p.width * p.height
    half = p.width // 2
    # square torus: classes (dx, dy) with 0 <= dy <= dx <= L/2, without (0, 0)
    expect(len(rows) == (half + 1) * (half + 2) // 2 - 1, f"corr has {len(rows)} rows")
    expect(sum(int(r[5]) for r in rows) == n * (n - 1), "pair_count does not sum to N(N-1)")
    for dx, dy, dist, corr, se, _, axis in rows:
        expect(abs(dist - math.hypot(dx, dy)) <= 1e-9 * max(1.0, dist), f"corr ({dx},{dy}): distance")
        expect(-1.0 - TOL <= corr <= 1.0 + TOL, f"corr ({dx},{dy}): corr_xx {corr} out of range")
        expect(se >= 0.0, f"corr ({dx},{dy}): negative stderr")
        expect(axis == float(dx == 0 or dy == 0), f"corr ({dx},{dy}): axis_flag")
    meta = read_meta(os.path.join(out_dir, "w_meta.txt"))
    expected = sample_count(p.t_total, p.burn_in, p.sample_interval, True)
    expect(meta.get("n_samples") == str(expected), f"meta n_samples {meta.get('n_samples')} != {expected}")


def check_sweep(out_dir: str, stdout: str, p) -> None:
    rows = read_csv(os.path.join(out_dir, "w_sweep.csv"),
                    "jy,L,Sxx_k0,Sxx_stderr,Mx_abs_mean,sample_count,trajectories")
    n = p.width * p.height
    expect(len(rows) == len(p.values), f"sweep has {len(rows)} rows")
    per_traj = p.trajectories // len(p.values)
    per_point = per_traj * sample_count(p.t_total, p.burn_in, p.sample_interval, True)
    for (jy, size, sxx, se, mx_abs, count, traj), value in zip(rows, p.values):
        expect(jy == value and size == p.width, f"sweep row jy={jy} L={size}")
        expect(in_sxx_range(sxx, n), f"sweep jy={jy}: Sxx_k0 {sxx} out of range")
        expect(se >= 0.0 and 0.0 <= mx_abs <= 1.0 + TOL, f"sweep jy={jy}: stderr or |Mx| out of range")
        expect(count == per_point and traj == per_traj, f"sweep jy={jy}: {count} samples")


ORACLE_CHECKS = ("single_spin_analytic", "unraveling_exactness",
                 "xxz_dark_state", "manifold_residual_resolved")


def check_oracle(out_dir: str, stdout: str, p) -> None:
    lines = stdout.splitlines()
    names = tuple(line.split()[1] for line in lines if len(line.split()) > 1)
    expect(names == ORACLE_CHECKS, f"oracle printed checks {names}")
    failed = [line for line in lines if not line.startswith("PASS ")]
    expect(not failed, f"oracle check failed: {failed}")
