"""Self-tests of the benchmark's tracer and output checks, on tiny configs.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from gwmc import cli, state  # noqa: E402
from gwmc.dynamics import ModelParams, TrajectoryConfig, run_trajectory  # noqa: E402
from gwmc.lattice import build_lattice  # noqa: E402

TINY = ["--width", "4", "--height", "4", "--jy", "1.2", "--t-total", "3", "--burn-in", "0.5",
        "--sample-interval", "0.5", "--seed", "3", "--out", "w"]
DELAY = 1e-3
STEPS = 200


def traced_trajectory(delay: float = 0.0) -> dict:
    """Trace a 4x4 trajectory of STEPS steps; with ``delay``, every call of
    renormalize first spins for that long inside its own span."""
    undo = []
    if delay:
        original = state.renormalize

        @functools.wraps(original)
        def slow(*args, **kwargs):
            end = time.perf_counter() + delay
            while time.perf_counter() < end:
                pass
            return original(*args, **kwargs)

        undo = tracer.replace_everywhere(original, slow)
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        run_trajectory(build_lattice(4, 4), ModelParams(0.9, 1.2, 1.0),
                       TrajectoryConfig(t_total=STEPS * 0.01, seed=1))
    finally:
        uninstall()
        for owner, attr, original in undo:
            setattr(owner, attr, original)
    return tracer.layer_metrics(t.to_json())


def test_injected_delay_shows_in_its_own_layer_only():
    base = traced_trajectory()
    slow = traced_trajectory(DELAY)
    injected = STEPS * DELAY
    assert slow["state.renormalize_calls"] == STEPS
    assert slow["state.renormalize_s"] - base["state.renormalize_s"] == pytest.approx(injected, rel=0.2)
    # the parent (deterministic_step) and the siblings (gather, jumps, loop) do not absorb it
    for name in ("dynamics.drift_s", "dynamics.gather_s", "dynamics.jump_s", "dynamics.loop_s"):
        assert abs(slow[name] - base[name]) < 0.1 * injected, name


def test_uninstall_restores_the_package():
    originals = {name: vars(owner)[attr] for name, owner, attr in tracer._targets()}
    uninstall = tracer.install(tracer.Tracer())
    assert state.renormalize is not originals["state.renormalize"]
    uninstall()
    assert {name: vars(owner)[attr] for name, owner, attr in tracer._targets()} == originals


def run_cli(args, directory, traced: bool):
    os.makedirs(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    t = tracer.Tracer()
    uninstall = tracer.install(t) if traced else (lambda: None)
    try:
        assert cli.main(args) == 0
    finally:
        uninstall()
        os.chdir(cwd)
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files, tracer.layer_metrics(t.to_json())


@pytest.mark.parametrize("command", [
    ["run"],
    ["correlate"],
    ["sweep", "--param", "jy", "--values", "1.2,2.5", "--trajectories", "2", "--workers", "1"],
])
def test_tracing_changes_no_output_and_counts_repeat(tmp_path, command):
    plain, _ = run_cli(command + TINY, str(tmp_path / "plain"), traced=False)
    traced1, counts1 = run_cli(command + TINY, str(tmp_path / "traced1"), traced=True)
    traced2, counts2 = run_cli(command + TINY, str(tmp_path / "traced2"), traced=True)
    assert plain and traced1 == plain and traced2 == plain
    for name in ("dynamics.steps", "dynamics.jump_draws", "dynamics.jumps",
                 "dynamics.masked_steps", "observables.samples", "state.renormalize_calls"):
        assert counts1[name] == counts2[name], name
    assert counts1["dynamics.steps"] > 0 and counts1["hook_errors"] == 0


def test_checks_reject_a_broken_series(tmp_path):
    class Params:
        width = height = 4
        t_total, burn_in, sample_interval = 3.0, 0.5, 0.5

    files, _ = run_cli(["run"] + TINY, str(tmp_path / "run"), traced=False)
    checks.check_series(str(tmp_path / "run"), "", Params)
    series = tmp_path / "run" / "w_series.csv"
    lines = files["w_series.csv"].decode().splitlines()
    series.write_text("\n".join(lines[:-1]) + "\n")  # one sample short
    with pytest.raises(checks.CheckFailed):
        checks.check_series(str(tmp_path / "run"), "", Params)
    series.write_text("\n".join([lines[0]] + [lines[1].replace(",1,", ",1.5,", 1)] + lines[2:]) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_series(str(tmp_path / "run"), "", Params)
