#!/usr/bin/env python3
"""Check that this tree's gwmc writes the same bytes as another checkout's.

    python3 tools/same_outputs.py PARENT_CHECKOUT [--seeds 1,7,41]
    python3 tools/same_outputs.py --record tests/output_digests.txt

Runs every command line of the byte-identity list at every seed, once with
each tree's ``src`` on PYTHONPATH, each run in a fresh temporary directory.
The list is the four benchmark workloads (``perfbench/run.py``), the
``sweep-jy`` workload again at one worker, a 4x4 ``run`` and ``correlate``
at Jy = 1.0 that trap in the dark state (the correlate's batch means run
over a nearly constant series), ``run --engine fullwfmc`` and ``--engine
exact`` on 2x1, ``run --engine exact`` and ``--engine fullwfmc`` on 2x2
(the 4-site exact observables to every written digit), ``oracle-check`` on
1, 2 and 4 sites, ``oracle-check`` on
2 sites at gamma 0.3 and t_total 7 (the dense and manifold paths run on
past the last checkpoint, 5, and 40 / gamma leaves the XXZ integration a
remainder interval), five lines at
Jy = 1.8 whose t_total of 20.5 ends half a sample interval after the last
sample: ``run`` on 4x4 and ``run --engine fullwfmc`` on 2x1, whose metas
count the jumps of those steps, and ``sweep`` on 4x4, ``run --engine
exact`` on 2x1 and ``correlate`` on 4x4, which take none of them; on the
same tail, ``run`` on 1x1 with each of the three engines, which pins each
engine's one-site rule (Sxx 0, no pair). Then ``mf-curve`` on its default
grid, a size sweep over 2x2 and 3x3 at one trajectory (the
``averaging = time`` batch-means path), ``correlate`` on 6x6, and two lines
on 4x4 that keep exactly two samples, the fewest a time average takes
(``--t-total 20 --burn-in 19``): ``correlate`` and a one-trajectory sweep
over two points. Last, a 4x4 ``run`` and a 2-site ``oracle-check`` at
gamma * dt = 2.5 * 0.02, exactly ``MAX_JUMP_PROB``, the largest step the
first-order jump rule accepts. Compares the exit code, stdout and every
file written; names each command line that differs and exits 1 if any
does, or if a command fails in both trees.

With ``--record FILE`` it compares nothing: it writes one sha256 per command
line and output at seed 1, under a header naming the numpy version and the
BLAS, which ``tests/test_output_digests.py`` checks every command line
against, run in-process.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import BLAS_THREADS, CLI, COMMON, WORKLOADS  # noqa: E402  the benchmark's command lines

RECORD_SEED = 1


def command_lines(seed: int):
    """The byte-identity list at one seed, as gwmc argument lists."""
    tail = [*COMMON, "--seed", str(seed)]
    for workload in WORKLOADS.values():
        yield workload.argv(seed)
    yield [*WORKLOADS["sweep-jy"].argv(seed), "--workers", "1"]  # the last --workers wins
    # Jy near Jx: the run traps in the dark state and idles to the horizon
    yield ["run", "--width", "4", "--height", "4", "--jy", "1.0", "--t-total", "80", "--burn-in", "10", *tail]
    # the same trap under correlate: batch means over a nearly constant series
    yield ["correlate", "--width", "4", "--height", "4", "--jy", "1.0", "--t-total", "80", "--burn-in", "10", *tail]
    for engine in ("fullwfmc", "exact"):
        yield ["run", "--engine", engine, "--width", "2", "--height", "1", "--jy", "1.2",
               "--t-total", "20", "--burn-in", "2", *tail]
    for engine in ("exact", "fullwfmc"):
        yield ["run", "--engine", engine, "--width", "2", "--height", "2", "--jy", "1.2",
               "--t-total", "20", "--burn-in", "2", *tail]
    for sites in ("1", "2", "4"):
        yield ["oracle-check", "--sites", sites, "--jy", "1.2", "--t-total", "5", "--trajectories", "1000", *tail]
    # the full-space ensemble stops at 5 while the dense and manifold paths run on
    # to 7, and 40 / 0.3 leaves a remainder interval in the XXZ integration;
    # the last --gamma wins
    yield ["oracle-check", "--sites", "2", "--jy", "1.2", "--t-total", "7", "--trajectories", "400", *tail,
           "--gamma", "0.3"]
    # off the sampling cadence: 50 steps after the last sample; at Jy = 1.8
    # the 2x1 full-space run still jumps in them at seeds 1 and 41
    off = ["--jy", "1.8", "--t-total", "20.5", "--burn-in", "2", *tail]
    yield ["run", "--width", "4", "--height", "4", *off]
    yield ["run", "--engine", "fullwfmc", "--width", "2", "--height", "1", *off]
    yield ["sweep", "--width", "4", "--height", "4", "--values", "1.0,1.2", "--trajectories", "2", *off]
    yield ["run", "--engine", "exact", "--width", "2", "--height", "1", *off]
    yield ["correlate", "--width", "4", "--height", "4", *off]
    for engine in ("gutzwiller", "fullwfmc", "exact"):
        yield ["run", "--engine", engine, "--width", "1", "--height", "1", *off]
    yield ["mf-curve"]
    short = ["--jy", "1.2", "--t-total", "20", "--burn-in", "2", *tail]
    yield ["sweep", "--param", "size", "--values", "2,3", "--trajectories", "1", *short]
    yield ["correlate", "--width", "6", "--height", "6", "--sample-interval", "0.5", *short]
    # samples at t = 19 and 20 only
    two = ["--width", "4", "--height", "4", "--jy", "1.2", "--t-total", "20", "--burn-in", "19", *tail]
    yield ["correlate", *two]
    yield ["sweep", "--values", "1.2,1.5", "--trajectories", "1", *two]
    # gamma * dt = 2.5 * 0.02, exactly the accepted maximum, on both trajectory
    # engines; the last --gamma and --dt win
    for argv in (["run", "--width", "4", "--height", "4", "--jy", "1.2", "--t-total", "20", "--burn-in", "2"],
                 ["oracle-check", "--sites", "2", "--jy", "1.2", "--t-total", "5", "--trajectories", "400"]):
        yield [*argv, *tail, "--gamma", "2.5", "--dt", "0.02"]


def shown(argv: list[str]) -> str:
    return "gwmc " + " ".join(argv)


def written(work) -> dict[str, bytes]:
    """Every file under the directory ``work``, by its relative path."""
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(Path(work).rglob("*")) if p.is_file()}


def outputs(tree: Path, argv: list[str]) -> dict[str, bytes]:
    """Exit code, stdout and every file one command writes, run on ``tree``'s src."""
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        proc = subprocess.run([sys.executable, *CLI, *argv], cwd=work, env=env, capture_output=True)
        return {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout, **written(work)}


def differing(mine: dict, theirs: dict) -> list[str]:
    """The outputs, by name, that one run has and the other lacks or holds otherwise."""
    return sorted(name for name in mine.keys() | theirs.keys() if mine.get(name) != theirs.get(name))


def digests(out: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in out.items()}


def platform() -> str:
    """The numpy version and the BLAS that the digests hold for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def record(path: Path) -> None:
    """Write the digests of every command line at RECORD_SEED, run on this tree."""
    lines = ["# sha256 of the exit code, stdout and each file of every command line of\n",
             f"# tools/same_outputs.py at seed {RECORD_SEED}, written by its --record FILE\n",
             f"# on: {platform()}\n"]
    for argv in command_lines(RECORD_SEED):
        lines.append(shown(argv) + "\n")
        lines += [f"    {digest}  {name}\n" for name, digest in digests(outputs(ROOT, argv)).items()]
    path.write_text("".join(lines))


def read_record(path: Path) -> tuple[str, dict[str, dict[str, str]]]:
    """(the platform the digests hold for, each command line's digests by output)."""
    on, lines = "", {}
    for line in path.read_text().splitlines():
        if line.startswith("# on: "):
            on = line[len("# on: "):]
        elif line.startswith("    "):
            digest, name = line.strip().split("  ", 1)
            lines[current][name] = digest
        elif not line.startswith("#"):
            current = line
            lines[current] = {}
    return on, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?", help="checkout to compare against (holding src/gwmc)")
    parser.add_argument("--seeds", default="1,7,41", help="comma-separated seeds (default 1,7,41)")
    parser.add_argument("--record", type=Path, metavar="FILE", help="write this tree's digests at seed 1 instead")
    args = parser.parse_args(argv)
    if args.record:
        record(args.record)
        return 0
    if args.parent is None:
        parser.error("give a PARENT checkout to compare against, or --record FILE")
    if not (args.parent / "src" / "gwmc").is_dir():
        parser.error(f"{args.parent} holds no src/gwmc")
    failed = 0
    lines = [line for seed in map(int, args.seeds.split(",")) for line in command_lines(seed)]
    for line in lines:
        mine, theirs = outputs(ROOT, line), outputs(args.parent.resolve(), line)
        differ = differing(mine, theirs)
        if differ:
            print(f"DIFFERS: {shown(line)}\n    in: {', '.join(differ)}")
        elif mine["exit code"] != b"0":
            print(f"FAILS IN BOTH: {shown(line)}")
        else:
            print(f"same: {shown(line)}")
            continue
        failed += 1
    print(f"{len(lines) - failed} of {len(lines)} command lines the same")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
