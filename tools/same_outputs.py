#!/usr/bin/env python3
"""Check that this tree's gwmc writes the same bytes as another checkout's.

    python3 tools/same_outputs.py PARENT_CHECKOUT [--seeds 1,7,41]

Runs every command line of the byte-identity list at every seed, once with
each tree's ``src`` on PYTHONPATH, each run in a fresh temporary directory.
The list is the four benchmark workloads (``perfbench/run.py``), the
``sweep-jy`` workload again at one worker, a 4x4 run at Jy = 1.0 that traps
in the dark state, ``run --engine fullwfmc`` and ``--engine exact`` on 2x1,
``oracle-check`` on 1, 2 and 4 sites, and three lines at Jy = 1.8 whose
t_total of 20.5 ends half a sample interval after the last sample: ``run``
on 4x4 and ``run --engine fullwfmc`` on 2x1, whose metas count the jumps
of those steps, and ``sweep`` on 4x4, which takes none of them. Compares
the exit code, stdout and every file written; names each command line that
differs and exits 1 if any does, or if a command fails in both trees.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import BLAS_THREADS, CLI, COMMON, WORKLOADS  # noqa: E402  the benchmark's command lines


def command_lines(seed: int):
    """The byte-identity list at one seed, as gwmc argument lists."""
    tail = [*COMMON, "--seed", str(seed)]
    for workload in WORKLOADS.values():
        yield workload.argv(seed)
    yield [*WORKLOADS["sweep-jy"].argv(seed), "--workers", "1"]  # the last --workers wins
    # Jy near Jx: the run traps in the dark state and idles to the horizon
    yield ["run", "--width", "4", "--height", "4", "--jy", "1.0", "--t-total", "80", "--burn-in", "10", *tail]
    for engine in ("fullwfmc", "exact"):
        yield ["run", "--engine", engine, "--width", "2", "--height", "1", "--jy", "1.2",
               "--t-total", "20", "--burn-in", "2", *tail]
    for sites in ("1", "2", "4"):
        yield ["oracle-check", "--sites", sites, "--jy", "1.2", "--t-total", "5", "--trajectories", "1000", *tail]
    # off the sampling cadence: 50 steps after the last sample; at Jy = 1.8
    # the 2x1 full-space run still jumps in them at seeds 1 and 41
    off = ["--jy", "1.8", "--t-total", "20.5", "--burn-in", "2", *tail]
    yield ["run", "--width", "4", "--height", "4", *off]
    yield ["run", "--engine", "fullwfmc", "--width", "2", "--height", "1", *off]
    yield ["sweep", "--width", "4", "--height", "4", "--values", "1.0,1.2", "--trajectories", "2", *off]


def outputs(tree: Path, argv: list[str]) -> dict[str, bytes]:
    """Exit code, stdout and every file one command writes, run on ``tree``'s src."""
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        proc = subprocess.run([sys.executable, *CLI, *argv], cwd=work, env=env, capture_output=True)
        files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(Path(work).rglob("*")) if p.is_file()}
    return {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout, **files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against (holding src/gwmc)")
    parser.add_argument("--seeds", default="1,7,41", help="comma-separated seeds (default 1,7,41)")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "gwmc").is_dir():
        parser.error(f"{args.parent} holds no src/gwmc")
    failed = 0
    lines = [line for seed in map(int, args.seeds.split(",")) for line in command_lines(seed)]
    for line in lines:
        mine, theirs = outputs(ROOT, line), outputs(args.parent.resolve(), line)
        shown = "gwmc " + " ".join(line)
        differ = sorted(name for name in mine.keys() | theirs.keys() if mine.get(name) != theirs.get(name))
        if differ:
            print(f"DIFFERS: {shown}\n    in: {', '.join(differ)}")
        elif mine["exit code"] != b"0":
            print(f"FAILS IN BOTH: {shown}")
        else:
            print(f"same: {shown}")
            continue
        failed += 1
    print(f"{len(lines) - failed} of {len(lines)} command lines the same")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
