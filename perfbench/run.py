"""gwmc benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload run-6x6 --seed 1 --seconds 25 --trace 0

Run from the repository root. Every command runs through the real CLI
(``python -m gwmc.cli ...``) in a fresh child interpreter with ``src`` on
PYTHONPATH; the workload seed is passed to the CLI as ``--seed``. With
``--trace 0`` the command is repeated for ``--seconds`` and the end-to-end
metrics are reported; with ``--trace 1`` the command runs twice under the
tracer (perfbench/tracer.py) and once untraced, and the per-layer metrics are
reported. Outputs are checked in both modes. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
from checks import CheckFailed
from child import yardstick
from tracer import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CLI = ("-m", "gwmc.cli")
WORK_ROOT = ".perfbench_work"

DT = 0.01
COMMON = ("--jx", "0.9", "--jz", "1", "--gamma", "1", "--dt", str(DT), "--out", "w")
MIN_REPEATS = 2
SETUP_REPEATS = 5
# BLAS thread pools stay at one thread, in this process (whose yardstick
# multiplies matrices) and in every child: on two shared cores an idle BLAS
# thread spinning on the other core ties a timing to the neighbours' load.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Time of ``child.yardstick()`` on the reference machine (a shared 2-core
# KVM guest, Xeon at 2.1 GHz, with nothing else of ours running). Timings
# are scaled by this over the yardstick times measured in the run.
YARDSTICK_REF_S = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    width: int
    height: int
    jy: float
    t_total: float
    burn_in: float = 0.5
    sample_interval: float = 1.0
    trajectories: int = 1
    values: tuple = ()
    extra: tuple = ()
    check: object = None
    pairs: bool = False  # set-up builds the displacement-class index
    setup_repeats: int = SETUP_REPEATS
    workers: int = 1  # pool workers; traced runs use one, so that all spans are seen

    def argv(self, seed: int, traced: bool = False) -> list[str]:
        args = [self.subcommand, "--width", str(self.width), "--height", str(self.height),
                "--jy", str(self.jy), "--t-total", str(self.t_total), *COMMON, *self.extra,
                "--seed", str(seed)]
        if self.subcommand != "oracle-check":
            args += ["--burn-in", str(self.burn_in), "--sample-interval", str(self.sample_interval)]
        if self.workers > 1:
            args += ["--workers", "1" if traced else str(self.workers)]
        return args

    @property
    def work(self) -> float:
        """Configured site-steps: sites x t_total/dt x trajectories."""
        return self.width * self.height * round(self.t_total / DT) * self.trajectories


SWEEP_VALUES = (1.0, 1.2, 1.5, 1.8, 2.1, 2.5)
ORACLE_TRAJECTORIES = 1000

WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-6x6", "run", 6, 6, jy=1.2, t_total=80.0, burn_in=10.5,
                 check=checks.check_series),
        Workload("corr-32x32", "correlate", 32, 32, jy=1.7, t_total=10.0, burn_in=1.05,
                 sample_interval=0.1, check=checks.check_corr, pairs=True, setup_repeats=3),
        Workload("sweep-jy", "sweep", 6, 6, jy=1.2, t_total=16.0, burn_in=5.5,
                 trajectories=2 * len(SWEEP_VALUES), values=SWEEP_VALUES,
                 extra=("--param", "jy", "--values", ",".join(map(str, SWEEP_VALUES)),
                        "--trajectories", "2"),
                 check=checks.check_sweep, workers=2),
        # The two trajectory ensembles (full-space and manifold) of 1000 rows
        # on two sites; the dense integrations are a fixed cost. Four sites
        # take ~10 s a command, two repeats a run, too unsteady (README).
        # At t_total 3 the four checks passed for every seed in 0-199.
        Workload("oracle-2site", "oracle-check", 2, 1, jy=1.2, t_total=3.0,
                 trajectories=2 * ORACLE_TRAJECTORIES,
                 extra=("--sites", "2", "--trajectories", str(ORACLE_TRAJECTORIES)),
                 check=checks.check_oracle),
    )
}


# -- child processes -------------------------------------------------------------


@dataclass
class Outcome:
    wall_s: float
    rc: int
    maxrss_kb: int
    stdout: str
    stderr: str
    out_dir: str
    error: str = ""
    files: dict = field(default_factory=dict)  # name -> sha256 of each output file

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.error


class Runner:
    """Starts children in per-run directories under one work directory and
    keeps the tally of attempted and failed runs."""

    def __init__(self, work: str, src: str):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GWMC_WORKERS")}
        self.env["PYTHONPATH"] = src
        self.env.update(BLAS_THREADS)
        self.attempted = 0
        self.failed = 0
        self._n = 0

    def spawn(self, argv: list[str]) -> Outcome:
        self._n += 1
        out_dir = os.path.join(self.work, f"r{self._n}")
        os.makedirs(out_dir)
        log = os.path.join(self.work, f"r{self._n}")
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=out_dir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log + ".out") as out, open(log + ".err") as err:
            stdout, stderr = out.read(), err.read()
        return Outcome(wall, proc.returncode, usage.ru_maxrss, stdout, stderr, out_dir)

    def tally(self, outcome: Outcome, what: str) -> Outcome:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            detail = outcome.error or outcome.stderr.strip().splitlines()[-1:] or "no output"
            print(f"FAILED {what}: exit {outcome.rc}: {detail}", file=sys.stderr)
        return outcome

    def command(self, wl: Workload, argv: list[str], what: str) -> Outcome:
        """Run one CLI command and check its outputs."""
        outcome = self.spawn(argv)
        if outcome.rc == 0:
            try:
                wl.check(outcome.out_dir, outcome.stdout, wl)
            except (CheckFailed, ValueError) as err:
                outcome.error = f"output check: {err}"
            outcome.files = digests(outcome.out_dir)
        return self.tally(outcome, what)


def digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def bytes_written(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


def require_identical(runner: Runner, ref: Outcome, other: Outcome, what: str, csv_only=False):
    def pick(o):
        return o.stdout if not o.files else {n: d for n, d in o.files.items()
                                            if n.endswith(".csv") or not csv_only}
    if ref.ok and other.ok and pick(ref) != pick(other):
        runner.failed += 1
        other.error = f"{what}: outputs differ"
        print(f"FAILED {what}: outputs are not byte-identical", file=sys.stderr)


class Yardstick:
    """Follows the speed of the machine, which on a shared box drifts by tens
    of percent within minutes. ``child.yardstick()``, a fixed computation
    that does not touch gwmc, is timed in this process right before and right
    after every measured child; for a workload that keeps both cores busy a
    helper process times it on the other core at the same moment. A child's
    wall time is scaled by YARDSTICK_REF_S over the mean of its two brackets.
    """

    def __init__(self, runner: Runner, cores: int):
        self.helper = None
        if cores > 1:
            self.helper = subprocess.Popen(
                [sys.executable, CHILD, "yardstick"], cwd=runner.work, env=runner.env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            self.helper.stdout.readline()  # ready
        yardstick()  # the first call pays for importing numpy
        self.times = []
        self._measure()

    def _measure(self) -> None:
        if self.helper:
            self.helper.stdin.write("go\n")
            self.helper.stdin.flush()
        t0 = time.perf_counter()
        yardstick()
        elapsed = time.perf_counter() - t0
        if self.helper:
            elapsed = (elapsed + float(self.helper.stdout.readline())) / 2
        self.times.append(elapsed)

    def scaled(self, outcome: Outcome) -> float:
        """The wall time of the child that just ended, at reference speed."""
        self._measure()
        return outcome.wall_s * YARDSTICK_REF_S / statistics.mean(self.times[-2:])

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.helper:
            self.helper.stdin.close()
            self.helper.wait()


# -- the two modes ---------------------------------------------------------------------


def end_to_end(runner: Runner, wl: Workload, seed: int, seconds: float) -> dict:
    """Repeat the command for ``seconds``; timings are medians at the
    reference machine speed."""
    start = time.perf_counter()
    runner.spawn([CHILD, "warm"])
    setup, runs = [], []
    with Yardstick(runner, wl.workers) as yard:
        for _ in range(wl.setup_repeats):
            outcome = runner.tally(runner.spawn([CHILD, "setup", str(wl.width), str(wl.height),
                                                 str(int(wl.pairs)), str(seed)]), "set-up")
            setup.append((outcome, yard.scaled(outcome)))
        while len(runs) < MIN_REPEATS or (
                time.perf_counter() + statistics.median(r.wall_s for r, _ in runs) <= start + seconds):
            outcome = runner.command(wl, [*CLI, *wl.argv(seed)], f"{wl.name} repeat {len(runs) + 1}")
            runs.append((outcome, yard.scaled(outcome)))
            if len(runs) > 1:
                require_identical(runner, runs[0][0], outcome, f"{wl.name} repeat {len(runs)} vs 1")
            if not outcome.ok:
                break
    good = [(r, w) for r, w in runs if r.ok]
    good_setup = [(s, w) for s, w in setup if s.ok]
    if not good or not good_setup:
        return {}
    wall = statistics.median(w for _, w in good)
    print(f"{wl.name}  command repeats, raw s: {' '.join(f'{r.wall_s:.3f}' for r, _ in good)}")
    print(f"{wl.name}  set-up repeats, raw s:  {' '.join(f'{s.wall_s:.3f}' for s, _ in good_setup)}")
    print(f"{wl.name}  yardsticks, s:          {' '.join(f'{y:.3f}' for y in yard.times)}"
          f" (reference {YARDSTICK_REF_S} s)")
    return {
        "wall_s": (wall, "s"),
        "site_steps_per_s": (wl.work / wall, "1/s"),
        "setup_s": (statistics.median(w for _, w in good_setup), "s"),
        "peak_rss_mb": (statistics.median(r.maxrss_kb for r, _ in good) / 1024.0, "MB"),
        "pass_rate": (1.0 - runner.failed / runner.attempted, "ratio"),
    }


# counts that must repeat exactly between two traced runs at one seed
EXACT_COUNTS = ("dynamics.steps", "dynamics.jump_draws", "dynamics.jumps", "dynamics.masked_steps",
                "dynamics.idle_steps", "observables.samples", "oracle.rhs_calls", "cli.bytes_written")

PER_LAYER_UNITS = {
    "dynamics.gather_s": "s", "dynamics.gather_calls": "count", "dynamics.drift_s": "s",
    "dynamics.jump_s": "s", "dynamics.jump_draws": "count", "dynamics.jumps": "count",
    "dynamics.jump_yield": "ratio", "dynamics.masked_steps": "count", "dynamics.steps": "count",
    "dynamics.idle_steps": "count", "dynamics.loop_s": "s", "dynamics.site_step_ns": "ns",
    "state.renormalize_s": "s", "state.renormalize_calls": "count", "state.bloch_s": "s",
    "lattice.build_s": "s", "lattice.class_index_s": "s",
    "observables.samples": "count", "observables.sample_bytes": "bytes",
    "observables.estimator_s": "s",
    "oracle.lindblad_s": "s", "oracle.rhs_calls": "count", "oracle.fullwfmc_s": "s",
    "oracle.ensemble_s": "s", "oracle.expect_s": "s",
    "cli.io_s": "s", "cli.bytes_written": "bytes", "cli.task_s_median": "s", "cli.task_s_max": "s",
    "cli.pool_efficiency": "ratio",
    "trace.overhead": "ratio", "trace.coverage": "ratio", "trace.hook_errors": "count",
}


def per_layer(runner: Runner, wl: Workload, seed: int) -> dict:
    """Run the command untraced once and traced twice. Times are as measured;
    ``trace.overhead`` and ``cli.pool_efficiency`` set single runs made at
    different moments against each other, so they carry the machine's drift."""
    runner.spawn([CHILD, "warm"])
    reference = runner.command(wl, [*CLI, *wl.argv(seed)], f"{wl.name} untraced")
    plain = reference
    if wl.workers > 1:  # the traced run is serial: time a serial untraced run too
        plain = runner.command(wl, [*CLI, *wl.argv(seed, traced=True)], f"{wl.name} untraced serial")
    layers = []
    for k in (1, 2):
        trace_file = os.path.join(runner.work, f"trace{k}.json")
        outcome = runner.command(wl, [CHILD, "trace", trace_file, *wl.argv(seed, traced=True)],
                                 f"{wl.name} traced {k}")
        require_identical(runner, reference, outcome, f"{wl.name} traced {k} vs untraced", csv_only=True)
        if outcome.ok:
            with open(trace_file) as fh:
                m = layer_metrics(json.load(fh))
            m["cli.bytes_written"] = bytes_written(outcome.out_dir)
            m["trace.coverage"] = m.pop("traced_s") / outcome.wall_s
            m["trace.overhead"] = outcome.wall_s / plain.wall_s - 1.0
            # the serial untraced run stands for the summed task time
            m["cli.pool_efficiency"] = (plain.wall_s / (wl.workers * reference.wall_s)
                                        if wl.workers > 1 else 0.0)
            m["trace.hook_errors"] = m.pop("hook_errors")
            layers.append(m)
    if len(layers) < 2 or not plain.ok:
        return {}
    diff = {c: (layers[0][c], layers[1][c]) for c in EXACT_COUNTS if layers[0][c] != layers[1][c]}
    if diff:
        runner.failed += 1
        print(f"FAILED {wl.name}: counts differ between traced runs: {diff}", file=sys.stderr)
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        a, b = layers[0][name], layers[1][name]
        out[name] = (a if a == b else (a + b) / 2, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(BLAS_THREADS)  # before the first yardstick imports numpy

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "gwmc", "cli.py")):
        print("error: run from the repository root; src/gwmc is missing", file=sys.stderr)
        return 1
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 1
    wl = WORKLOADS[args.workload]
    work = os.path.abspath(os.path.join(WORK_ROOT, f"{wl.name}-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work, src)
    try:
        if args.trace:
            metrics = per_layer(runner, wl, args.seed)
        else:
            metrics = end_to_end(runner, wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    if not metrics:
        print(f"error: no successful run of {wl.name}; nothing to report", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{wl.name}  {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
