import gc
import importlib.util
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gwmc import dynamics, oracle
from gwmc.cli import (COMMANDS, ENGINES, RunConfig, SweepConfig, _base_meta, _fmt, build_parser, main, parse_kv_file,
                      run_sweep)
from gwmc.dynamics import run_trajectory
from gwmc.errors import ConfigError, NumericsError
from gwmc.lattice import build_lattice
from gwmc.observables import correlation_profile, instantaneous_structure_factor, magnetization
from gwmc.state import down_state, plus_x_state, save_state_csv


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfigParsing:
    def test_default_coupling_regime(self):
        cfg = RunConfig()
        assert (cfg.jx, cfg.jz, cfg.gamma) == (0.9, 1.0, 1.0)
        assert cfg.dt == 0.01
        assert cfg.sample_interval == 1.0
        assert cfg.burn_in == 200.0

    def test_mapping_roundtrip(self):
        cfg = RunConfig(jy=1.7, width=4, height=4, t_total=50.0, burn_in=10.0, seed=9)
        back = RunConfig.from_mapping(_base_meta(cfg, "run"))
        assert back == cfg

    def test_unknown_keys_ignored(self):
        cfg = RunConfig.from_mapping({"jy": "1.5", "code_version": "9.9", "command": "run"})
        assert cfg.jy == 1.5

    def test_bad_engine(self):
        with pytest.raises(ConfigError):
            RunConfig(engine="magic")

    @pytest.mark.parametrize("engine,width,height,refused", [
        pytest.param("exact", 3, 2, True, id="exact-3x2"),
        pytest.param("exact", 4, 3, True, id="exact-4x3"),
        pytest.param("fullwfmc", 3, 2, False, id="fullwfmc-3x2"),
        pytest.param("fullwfmc", 4, 3, True, id="fullwfmc-4x3"),
    ])
    def test_exact_engine_site_cap(self, engine, width, height, refused):
        if refused:
            with pytest.raises(ConfigError):
                RunConfig(engine=engine, width=width, height=height)
        else:
            assert RunConfig(engine=engine, width=width, height=height).engine == engine

    def test_kv_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("jy = 1.5  # ferromagnetic side\n\nwidth = 4\n")
        assert parse_kv_file(path) == {"jy": "1.5", "width": "4"}
        bad = tmp_path / "bad.txt"
        bad.write_text("jy 1.5\n")
        with pytest.raises(ConfigError):
            parse_kv_file(bad)


def _run_args(tmp_path, name, **over):
    args = {
        "width": "3", "height": "3", "jy": "1.2", "t-total": "30", "burn-in": "10",
        "seed": "5", "out": str(tmp_path / name),
    }
    args.update(over)
    out = []
    for key, value in args.items():
        out.extend([f"--{key}", value])
    return out


class TestRunCommand:
    def test_writes_series_and_meta(self, tmp_path):
        assert main(["run", *_run_args(tmp_path, "a")]) == 0
        series = (tmp_path / "a_series.csv").read_text().splitlines()
        assert series[0] == "time,Mx,My,Mz,Sxx_inst,jumps_this_interval"
        assert len(series) == 32  # t=0 plus 30 samples, one per 1/gamma
        first = series[1].split(",")
        assert first[0] == "0" and first[1] == "1"
        meta = parse_kv_file(tmp_path / "a_meta.txt")
        assert meta["rng_algorithm"] == "philox4x64"
        assert meta["engine"] == "gutzwiller"
        assert "code_version" in meta

    def test_byte_determinism(self, tmp_path):
        main(["run", *_run_args(tmp_path, "d1")])
        main(["run", *_run_args(tmp_path, "d2")])
        assert _read(tmp_path / "d1_series.csv") == _read(tmp_path / "d2_series.csv")

    def test_meta_roundtrip_reproduces_csv(self, tmp_path):
        main(["run", *_run_args(tmp_path, "orig")])
        meta_path = str(tmp_path / "orig_meta.txt")
        assert main(["run", "--config", meta_path, "--out", str(tmp_path / "redo")]) == 0
        assert _read(tmp_path / "orig_series.csv") == _read(tmp_path / "redo_series.csv")

    def test_xxz_trapped_recorded(self, tmp_path):
        args = _run_args(tmp_path, "trap", **{"width": "4", "height": "4", "jx": "0.9",
                                              "jy": "0.9", "t-total": "150", "burn-in": "0"})
        assert main(["run", *args]) == 0
        meta = parse_kv_file(tmp_path / "trap_meta.txt")
        assert "trapped_at" in meta
        assert float(meta["trapped_at"]) < 150.0
        # Mx decays to zero in the series
        last = (tmp_path / "trap_series.csv").read_text().splitlines()[-1].split(",")
        assert abs(float(last[1])) < 1e-12

    def test_minus_x_mirrors_plus_x(self, tmp_path):
        main(["run", *_run_args(tmp_path, "pl")])
        main(["run", *_run_args(tmp_path, "mi", **{"initial-state": "minus_x"})])
        rows_p = (tmp_path / "pl_series.csv").read_text().splitlines()[1:]
        rows_m = (tmp_path / "mi_series.csv").read_text().splitlines()[1:]
        for rp, rm in zip(rows_p, rows_m):
            fp, fm = rp.split(","), rm.split(",")
            assert float(fm[1]) == -float(fp[1])  # Mx mirrored
            assert fm[4] == fp[4]  # Sxx invariant

    def test_engine_caps_exit_code(self, tmp_path):
        args = _run_args(tmp_path, "big", engine="fullwfmc", width="6", height="6")
        assert main(["run", *args]) == 1

    @pytest.mark.parametrize("command", ["run", "correlate"])
    @pytest.mark.parametrize("flag", ["width", "height"])
    def test_nonpositive_dimensions_exit_code(self, tmp_path, capsys, command, flag):
        assert main([command, *_run_args(tmp_path, "z", **{flag: "0"})]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value", [
        ("jx", "nan"), ("jy", "nan"), ("jy", "inf"), ("jz", "inf"), ("gamma", "nan"), ("t-total", "inf"),
    ])
    def test_non_finite_input_exit_code(self, tmp_path, capsys, flag, value):
        assert main(["run", *_run_args(tmp_path, "nf", **{flag: value})]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    def test_step_count_overflow_exit_code(self, tmp_path, capsys):
        # t_total / dt is not a finite step count
        assert main(["run", *_run_args(tmp_path, "dt", dt="1e-320")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,reason", [
        (["run", "--seed", "-1"], "seed"),
        (["run", "--seed", str(2**64)], "seed"),
        (["correlate", "--seed", "-1"], "seed"),
        (["sweep", "--seed", "-1", "--values", "1.2"], "seed"),
        (["oracle-check", "--seed", "-1"], "seed"),
        (["run", "--t-total", "0.105", "--sample-interval", "0.015"], "whole number"),
        (["run", "--sample-interval", "0.015"], "whole number"),
        (["correlate", "--t-total", "2.005"], "whole number"),
        (["sweep", "--t-total", "2.005", "--values", "1.2"], "whole number"),
        (["oracle-check", "--dt", "0.03"], "whole number"),
        (["oracle-check", "--t-total", "2.005"], "whole number"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_seed_or_span_refused_before_work(self, tmp_path, capsys, monkeypatch, argv, reason):
        # a seed outside the Philox key (-1 and 2^64 - 1 would share a stream)
        # and a span off the dt grid exit 1 and write nothing
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and reason in captured.err and captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("line", ["width = 2.5", "seed = one", "jy = strong"])
    def test_malformed_config_file_value(self, tmp_path, capsys, line):
        config = tmp_path / "cfg.txt"
        config.write_text(line + "\n")
        args = ["--config", str(config), "--t-total", "5", "--burn-in", "1", "--out", str(tmp_path / "mf")]
        assert main(["run", *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("engine", ["gutzwiller", "fullwfmc"])
    def test_step_above_max_jump_prob_exit_code(self, tmp_path, capsys, engine):
        # first-order jump sampling needs gamma * dt <= 0.05
        # (on the step grid of dt = 0.06, which refuses a span off it first)
        args = _run_args(tmp_path, "dt", engine=engine, width="2", height="1", dt="0.06",
                         **{"t-total": "2.4", "burn-in": "0.5", "sample-interval": "0.6"})
        assert main(["run", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeds max_jump_prob = 0.05" in err
        assert not list(tmp_path.iterdir())

    def test_old_meta_with_removed_keys_loads(self, tmp_path):
        # meta files once held max_jump_prob and workers; as --config they are ignored
        main(["run", *_run_args(tmp_path, "orig")])
        old = tmp_path / "old_meta.txt"
        old.write_text((tmp_path / "orig_meta.txt").read_text() + "max_jump_prob = 0.05\nworkers = 1\n")
        assert main(["run", "--config", str(old), "--out", str(tmp_path / "redo")]) == 0
        assert _read(tmp_path / "orig_series.csv") == _read(tmp_path / "redo_series.csv")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", [
        "four_site_snapshot", "dark_snapshot", "sample_interval_below_dt", "missing_snapshot",
        "missing_config", "wrong_header", "short_row", "nan_amplitude", "zero_norm_spinor",
        "repeated_site",
    ])
    def test_engines_share_input_checks(self, tmp_path, capsys, engine, case):
        # all engines resolve the initial state and the sampling cadence in
        # one place, so each refuses the same bad inputs on a 2-site lattice
        snapshot = tmp_path / "init.csv"
        broken_lines = {  # line number and text replacing it in a valid 2-site snapshot
            "wrong_header": (0, "site,re_up,im_up,re_down,im_down"),
            "short_row": (2, "1,0.6,0"),
            "nan_amplitude": (2, "1,nan,0,0.8,0"),
            "zero_norm_spinor": (2, "1,0,0,0,0"),
            "repeated_site": (2, "0,0.6,0,0.8,0"),
        }
        over = {"initial-state": str(snapshot)}
        if case == "sample_interval_below_dt":
            over = {"sample-interval": "0.005", "dt": "0.01"}
        elif case == "missing_config":
            over = {"config": str(tmp_path / "absent.txt")}
        elif case != "missing_snapshot":
            states = {"four_site_snapshot": plus_x_state(4), "dark_snapshot": down_state(2)}
            save_state_csv(snapshot, states.get(case, plus_x_state(2)))
            if case in broken_lines:
                lines = snapshot.read_text().splitlines()
                number, text = broken_lines[case]
                lines[number] = text
                snapshot.write_text("\n".join(lines) + "\n")
        before = list(tmp_path.iterdir())
        args = _run_args(tmp_path, "bad", engine=engine, width="2", height="1",
                         **{"t-total": "2", "burn-in": "0.5", **over})
        assert main(["run", *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == before

    def test_exact_engine_small_system(self, tmp_path):
        args = _run_args(tmp_path, "ex", engine="exact", width="2", height="1",
                         **{"t-total": "10", "burn-in": "2"})
        assert main(["run", *args]) == 0
        rows = (tmp_path / "ex_series.csv").read_text().splitlines()[1:]
        assert len(rows) == 11
        # the exact engine records true pair expectations, jumps column stays 0
        assert all(r.split(",")[5] == "0" for r in rows)


class TestSweepCommand:
    @pytest.mark.parametrize("command", ["sweep", "mf-curve"])
    @pytest.mark.parametrize("values", [
        pytest.param("", id="empty"),
        pytest.param("1.2,,2.5", id="inner"),
        pytest.param("1.2,", id="trailing"),
    ])
    def test_empty_values_config_error(self, tmp_path, capsys, command, values):
        # the value-list parser is shared; mf-curve falls back to its
        # default grid only when no list is given at all
        args = _run_args(tmp_path, "s") if command == "sweep" else ["--out", str(tmp_path / "s")]
        assert main([command, *args, "--values", values]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    def test_missing_values_flag(self, tmp_path):
        assert main(["sweep", *_run_args(tmp_path, "s")]) == 1

    @pytest.mark.parametrize("engine", ["fullwfmc", "exact"])
    def test_oracle_engines_config_error(self, tmp_path, capsys, engine):
        # a sweep batches manifold trajectories only
        args = _run_args(tmp_path, "s", engine=engine, width="2", height="2") + ["--values", "1.2,2.5"]
        assert main(["sweep", *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    def test_zero_trajectories_config_error(self, tmp_path, capsys):
        args = _run_args(tmp_path, "s") + ["--values", "1.2", "--trajectories", "0"]
        assert main(["sweep", *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("values", ["nan", "1.2,inf"])
    def test_non_finite_values_config_error(self, tmp_path, capsys, values):
        args = _run_args(tmp_path, "s") + ["--values", values]
        assert main(["sweep", *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    def test_step_count_overflow_config_error(self, tmp_path, capsys):
        args = _run_args(tmp_path, "s", dt="1e-320") + ["--values", "1.2"]
        assert main(["sweep", *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    def test_malformed_trajectories_in_config_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("trajectories = two\nvalues = 1.2\n")
        assert main(["sweep", *_run_args(tmp_path, "s"), "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("values", ["3.7", "3,4.5", "0", "-3"])
    def test_bad_sizes_config_error(self, tmp_path, capsys, values):
        args = _run_args(tmp_path, "s") + ["--param", "size", "--values", values]
        assert main(["sweep", *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    def test_rows_and_determinism(self, tmp_path):
        args = _run_args(tmp_path, "s1") + ["--values", "1.2,2.5", "--trajectories", "2"]
        assert main(["sweep", *args]) == 0
        rows = (tmp_path / "s1_sweep.csv").read_text().splitlines()
        assert rows[0] == "jy,L,Sxx_k0,Sxx_stderr,Mx_abs_mean,sample_count,trajectories"
        assert [r.split(",")[0] for r in rows[1:]] == ["1.2", "2.5"]
        assert all(r.split(",")[1] == "3" for r in rows[1:])
        assert all(r.split(",")[6] == "2" for r in rows[1:])

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize("param,values,trajectories,solo_workers", [
        ("jy", "1.2,1.8", "2", "4"),
        ("size", "3,4", "3", "3"),
    ], ids=["jy", "size"])
    def test_worker_count_invariance(self, tmp_path, workers, param, values, trajectories, solo_workers):
        # rows sharing a lattice run as batches of contiguous rows, one per
        # worker (3 workers give uneven chunks); the reference runs one row
        # per chunk, i.e. every trajectory alone
        for name, w in (("ref", solo_workers), ("w", workers)):
            args = _run_args(tmp_path, name, workers=w) + [
                "--param", param, "--values", values, "--trajectories", trajectories,
            ]
            assert main(["sweep", *args]) == 0
        assert _read(tmp_path / "ref_sweep.csv") == _read(tmp_path / "w_sweep.csv")

    def test_meta_roundtrip(self, tmp_path):
        args = _run_args(tmp_path, "sm") + ["--values", "1.2,1.5", "--trajectories", "1"]
        main(["sweep", *args])
        assert main(["sweep", "--config", str(tmp_path / "sm_meta.txt"),
                     "--out", str(tmp_path / "sm2")]) == 0
        assert _read(tmp_path / "sm_sweep.csv") == _read(tmp_path / "sm2_sweep.csv")

    def test_size_sweep(self, tmp_path):
        args = _run_args(tmp_path, "sz") + ["--param", "size", "--values", "3,4"]
        assert main(["sweep", *args]) == 0
        rows = (tmp_path / "sz_sweep.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["3", "4"]

    @pytest.mark.parametrize("trajectories", ["1", "2"])
    def test_no_sample_after_burn_in_refused(self, tmp_path, capsys, trajectories):
        # samples fall at 0 and 1; one at 2 would be kept (t >= burn_in)
        args = _run_args(tmp_path, "nb", width="2", height="2", **{"t-total": "1.9", "burn-in": "1.5"})
        assert main(["sweep", *args, "--values", "1.2", "--trajectories", trajectories]) == 1
        assert capsys.readouterr().err.startswith("error: no sample at or after burn_in = 1.5")
        assert not list(tmp_path.iterdir())
        args = _run_args(tmp_path, "last", width="2", height="2", **{"t-total": "2.5", "burn-in": "2"})
        assert main(["sweep", *args, "--values", "1.2", "--trajectories", "2"]) == 0
        assert (tmp_path / "last_sweep.csv").read_text().splitlines()[1].split(",")[5] == "2"

    @pytest.mark.parametrize("param,values,trajectories,workers,pool", [
        ("jy", "1.2", "1", "2", None),  # one row, one chunk: no pool
        ("jy", "1.2,1.5", "1", "4", 2),  # two rows
        ("size", "2,3", "1", "3", 2),  # one chunk per lattice
        ("jy", "1.2,1.5", "2", "3", 3),
    ])
    def test_pool_sized_by_the_chunks(self, tmp_path, monkeypatch, param, values, trajectories, workers, pool):
        import concurrent.futures

        made = []

        class Recording:  # stands in for the process pool, and runs the chunks here
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        args = _run_args(tmp_path, "p", width="2", height="2", workers=workers, **{"t-total": "12", "burn-in": "2"})
        assert main(["sweep", *args, "--param", param, "--values", values, "--trajectories", trajectories]) == 0
        assert made == ([] if pool is None else [pool])
        assert parse_kv_file(tmp_path / "p_meta.txt")["workers"] == workers

    def test_single_trajectory_uses_batch_means(self, tmp_path):
        sweep = SweepConfig(
            base=RunConfig(width=3, height=3, t_total=60.0, burn_in=10.0, seed=4,
                           out=str(tmp_path / "x")),
            values=(1.2,),
            trajectories=1,
        )
        rows = run_sweep(sweep)
        assert rows[0]["sample_count"] == 51
        assert rows[0]["Sxx_stderr"] > 0


class TestCorrelateCommand:
    def test_frozen_plus_x_input(self, tmp_path):
        # unitary isotropic couplings hold the all-+x state frozen, so every
        # class must report exactly 1
        args = _run_args(tmp_path, "c", **{"jx": "0.7", "jy": "0.7", "jz": "0.7",
                                           "gamma": "0", "t-total": "20", "burn-in": "5"})
        assert main(["correlate", *args]) == 0
        rows = (tmp_path / "c_corr.csv").read_text().splitlines()
        assert rows[0] == "dx,dy,distance,corr_xx,stderr,pair_count,axis_flag"
        for row in rows[1:]:
            fields = row.split(",")
            assert float(fields[3]) == pytest.approx(1.0, abs=1e-10)

    def test_pair_counts_and_axis_flags(self, tmp_path):
        args = _run_args(tmp_path, "c4", **{"width": "4", "height": "4"})
        assert main(["correlate", *args]) == 0
        rows = [r.split(",") for r in (tmp_path / "c4_corr.csv").read_text().splitlines()[1:]]
        assert sum(int(r[5]) for r in rows) == 16 * 15
        by_disp = {(int(r[0]), int(r[1])): r for r in rows}
        assert by_disp[(1, 0)][6] == "1"
        assert by_disp[(1, 1)][6] == "0"

    def test_requires_manifold_engine(self, tmp_path):
        args = _run_args(tmp_path, "ce", engine="exact", width="2", height="2")
        assert main(["correlate", *args]) == 1

    def test_one_site_refused_before_work(self, tmp_path, capsys, monkeypatch):
        steps = []
        monkeypatch.setattr(dynamics, "advance", lambda *a, **k: steps.append(1))
        assert main(["correlate", *_run_args(tmp_path, "c1", width="1", height="1")]) == 1
        assert capsys.readouterr().err.startswith("error: a correlation profile needs at least 2 sites")
        assert not steps and not list(tmp_path.iterdir())


class TestStreaming:
    """run and correlate consume each sample as the step loop takes it."""

    @pytest.mark.parametrize("command", ["run", "correlate"])
    def test_peak_memory_bounded_in_the_horizon(self, tmp_path, command):
        # from T to 10 T the peak grows by far less than the (n, 3) Bloch
        # history of the extra samples would take
        def peak(t_total):
            args = _run_args(tmp_path, f"m{t_total}", width="8", height="8",
                             **{"t-total": str(t_total), "burn-in": "0", "sample-interval": "0.1"})
            gc.collect()
            gc.disable()  # each run's garbage (its parser) then lives to the end, whenever a collection would come
            tracemalloc.start()
            try:
                assert main([command, *args]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                gc.enable()

        t = 3
        peak(t)  # first calls allocate once: imports, caches
        short = peak(t)
        grown = peak(10 * t) - short
        history = round(9 * t / 0.1) * 64 * 3 * 8
        assert grown < history / 4, (grown, history)

    @pytest.mark.parametrize("call", ["deterministic_step", "advance", "correlate"])
    def test_no_drift_kernel_outlives_the_command(self, tmp_path, call):
        # the drift kernel's buffers go when the call or the run that built
        # them ends: no array data allocated in dynamics.py stays live (numpy
        # traces array data in its own domain, apart from the interpreter's
        # free lists)
        g = build_lattice(32, 32)
        amps = plus_x_state(g.n_sites)
        p = dynamics.ModelParams(0.9, 1.2, 1.0)
        args = _run_args(tmp_path, "k", width="8", height="8", **{"t-total": "3", "burn-in": "0"})
        arrays = tracemalloc.Filter(True, dynamics.__file__, domain=np.lib.tracemalloc_domain)
        tracemalloc.start()
        try:
            if call == "deterministic_step":
                dynamics.deterministic_step(amps, g, p, 0.01)
            elif call == "advance":
                dynamics.advance(amps, g, p, dynamics.StepConfig(), dynamics.RngStream(1).generator())
            else:
                assert main(["correlate", *args]) == 0
            gc.collect()
            live = tracemalloc.take_snapshot().filter_traces([arrays])
        finally:
            tracemalloc.stop()
        assert not live.traces, live.statistics("lineno")[:3]

    def test_correlate_csv_equals_the_collected_profile(self, tmp_path):
        args = _run_args(tmp_path, "cs", width="6", height="6", **{"t-total": "20", "burn-in": "2",
                                                                   "sample-interval": "0.5"})
        assert main(["correlate", *args]) == 0
        cfg = RunConfig.from_mapping(parse_kv_file(tmp_path / "cs_meta.txt"))
        geometry = cfg.geometry()
        profile = correlation_profile(run_trajectory(geometry, cfg.model(), cfg.trajectory(), cfg.step()).samples,
                                      geometry)
        lines = ["dx,dy,distance,corr_xx,stderr,pair_count,axis_flag"] + [
            f"{c.dx},{c.dy},{_fmt(c.distance)},{_fmt(m)},{_fmt(e)},{c.pair_count},{int(c.is_axis)}"
            for c, m, e in zip(profile.classes, profile.mean, profile.stderr)
        ]
        assert (tmp_path / "cs_corr.csv").read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("engine,over", [
        pytest.param("gutzwiller", {}, id="gutzwiller"),
        pytest.param("gutzwiller", {"width": "4", "height": "4", "jy": "0.9", "jx": "0.9", "t-total": "150",
                                    "burn-in": "0"}, id="gutzwiller-xxz-trap"),
        pytest.param("fullwfmc", {"width": "2", "height": "1"}, id="fullwfmc"),
        pytest.param("exact", {"width": "2", "height": "1"}, id="exact"),
    ])
    def test_run_csv_equals_the_collected_series(self, tmp_path, engine, over):
        assert main(["run", *_run_args(tmp_path, "st", engine=engine, **over)]) == 0
        meta = parse_kv_file(tmp_path / "st_meta.txt")
        cfg = RunConfig.from_mapping(meta)
        geometry, p, traj, step = cfg.geometry(), cfg.model(), cfg.trajectory(), cfg.step()
        if engine == "exact":
            samples = list(oracle.DenseLindblad(geometry, p).iter_samples(traj, step))
            assert "total_jumps" not in meta
        else:
            result = {"gutzwiller": run_trajectory, "fullwfmc": oracle.full_wfmc_trajectory}[engine](
                geometry, p, traj, step)
            samples = result.samples
            assert meta["total_jumps"] == str(result.total_jumps)
            assert meta.get("trapped_at") == (None if result.trapped_at is None else _fmt(result.trapped_at))
            assert ("trapped_at" in meta) == ("jx" in over)
        lines = ["time,Mx,My,Mz,Sxx_inst,jumps_this_interval"]
        for s in samples:  # every case has at least 2 sites
            sxx = instantaneous_structure_factor(s.bloch[:, 0]) if s.sxx_inst is None else s.sxx_inst
            lines.append(",".join([_fmt(s.time), *map(_fmt, magnetization(s.bloch)), _fmt(sxx),
                                   str(int(s.jumps_in_interval))]))
        assert (tmp_path / "st_series.csv").read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("engine,owner,attr,fail_at", [
        ("gutzwiller", dynamics, "advance", 250),  # one call per step
        ("fullwfmc", oracle.FullWfmc, "advance", 250),
        ("exact", oracle.DenseLindblad, "integrate", 3),  # one call per sample interval
    ])
    def test_numerics_error_mid_run_writes_nothing(self, tmp_path, capsys, monkeypatch, engine, owner, attr,
                                                   fail_at):
        # the failure comes after the first rows were streamed out
        original = getattr(owner, attr)
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == fail_at:
                raise NumericsError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, failing)
        args = _run_args(tmp_path, "nm", engine=engine, width="2", height="1", **{"t-total": "5", "burn-in": "1"})
        assert main(["run", *args]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not list(tmp_path.iterdir())

    def test_only_a_pooled_sweep_imports_the_pool(self):
        code = "import sys, gwmc.cli; print('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"


class TestMfCurveCommand:
    def test_default_grid(self, tmp_path):
        out = str(tmp_path / "mf")
        assert main(["mf-curve", "--jx", "0.9", "--jz", "1.0", "--out", out]) == 0
        rows = (tmp_path / "mf_mf.csv").read_text().splitlines()
        assert rows[0] == "jy,Sxx_mf"
        values = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
        transition = 1.0390625
        for jy, s in values.items():
            assert (s > 0) == (jy > transition)
        assert values[1.2] == pytest.approx(0.328839, abs=1e-5)
        meta = parse_kv_file(tmp_path / "mf_meta.txt")
        assert float(meta["transition_jy"]) == transition

    def test_degenerate_couplings_flagged(self, tmp_path):
        out = str(tmp_path / "deg")
        assert main(["mf-curve", "--jx", "1.0", "--jz", "1.0", "--out", out]) == 0
        rows = (tmp_path / "deg_mf.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)
        assert parse_kv_file(tmp_path / "deg_meta.txt")["transition_jy"] == "none"


class TestMetaFiles:
    # each command's meta: the command, the keys it read, the code and RNG
    # versions, and its own results
    COMMAND_ARGS = {
        "run": [],
        "correlate": [],
        "sweep": ["--values", "1.2,1.5", "--trajectories", "2"],
        "mf-curve": ["--values", "1.2,1.5"],
    }
    EXTRAS = {"run": {"total_jumps"}, "correlate": {"n_samples"}, "sweep": {"averaging"},
              "mf-curve": {"transition_jy"}}
    OUTPUTS = {"run": "series", "correlate": "corr", "sweep": "sweep", "mf-curve": "mf"}

    def _args(self, tmp_path, command, name):
        if command == "mf-curve":
            return ["--out", str(tmp_path / name)]
        return _run_args(tmp_path, name, **{"t-total": "12", "burn-in": "2"})

    @pytest.mark.parametrize("command", COMMAND_ARGS)
    def test_meta_holds_the_keys_read(self, tmp_path, command):
        assert main([command, *self._args(tmp_path, command, "m"), *self.COMMAND_ARGS[command]]) == 0
        meta = parse_kv_file(tmp_path / "m_meta.txt")
        assert list(meta)[0] == "command" and meta["command"] == command
        assert set(meta) == ({"command", "code_version", "rng_algorithm"} | set(COMMANDS[command])
                             | self.EXTRAS[command])

    @pytest.mark.parametrize("command", ["correlate", "mf-curve"])  # run and sweep: their own classes
    def test_meta_roundtrip_reproduces_csv(self, tmp_path, command):
        assert main([command, *self._args(tmp_path, command, "a"), *self.COMMAND_ARGS[command]]) == 0
        assert main([command, "--config", str(tmp_path / "a_meta.txt"), "--out", str(tmp_path / "b")]) == 0
        csv = self.OUTPUTS[command]
        assert _read(tmp_path / f"a_{csv}.csv") == _read(tmp_path / f"b_{csv}.csv")

    # every command writes its CSV and meta through .part files, opened
    # before the first row is computed and renamed once both are whole
    @pytest.mark.parametrize("command", COMMAND_ARGS)
    def test_unwritable_out_refused_before_work(self, tmp_path, capsys, monkeypatch, command):
        steps = []
        monkeypatch.setattr(dynamics, "advance", lambda *a, **k: steps.append(1))
        assert main([command, *self._args(tmp_path, command, "missing/x"), *self.COMMAND_ARGS[command]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write ") and captured.out == ""
        assert not steps  # mf-curve takes no step in any case
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", COMMAND_ARGS)
    def test_meta_path_in_the_way_leaves_no_csv(self, tmp_path, capsys, command):
        (tmp_path / "x_meta.txt").mkdir()
        assert main([command, *self._args(tmp_path, command, "x"), *self.COMMAND_ARGS[command]]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert [p.name for p in tmp_path.iterdir()] == ["x_meta.txt"]
        assert not list((tmp_path / "x_meta.txt").iterdir())

    @pytest.mark.parametrize("command", COMMAND_ARGS)
    def test_workers_env_ignored(self, tmp_path, monkeypatch, command):
        # only the flag and --config set sweep's workers, which default to 1
        monkeypatch.setenv("GWMC_WORKERS", "two")
        assert main([command, *self._args(tmp_path, command, "w"), *self.COMMAND_ARGS[command]]) == 0
        assert parse_kv_file(tmp_path / "w_meta.txt").get("workers") == ("1" if command == "sweep" else None)


class TestOracleCheckCommand:
    def test_passes(self, capsys):
        code = main(["oracle-check", "--sites", "2", "--trajectories", "600",
                     "--t-total", "3", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    @pytest.mark.parametrize("flag,value", [
        ("--trajectories", "0"), ("--trajectories", "-5"), ("--trajectories", "1"), ("--t-total", "0.5"),
    ])
    def test_input_without_verdict_exit_code(self, capsys, flag, value):
        args = {"--sites": "2", "--trajectories": "600", "--t-total": "3", "--seed": "7", flag: value}
        assert main(["oracle-check", *(x for kv in args.items() for x in kv)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_corrupted_jump_fails(self, capsys, corrupt_jumps):
        code = main(["oracle-check", "--sites", "2", "--trajectories", "600",
                     "--t-total", "3", "--seed", "7"])
        assert code == 2
        assert "FAIL unraveling_exactness" in capsys.readouterr().out

    def test_config_keys_honoured(self, tmp_path, capsys):
        # t_total, sites and trajectories each change what the check prints
        config = tmp_path / "cfg.txt"
        config.write_text("t_total = 2\nsites = 1\ntrajectories = 300\n")
        from_file = main(["oracle-check", "--config", str(config)]), capsys.readouterr().out
        from_flags = main(["oracle-check", "--t-total", "2", "--sites", "1", "--trajectories", "300"])
        assert from_file == (from_flags, capsys.readouterr().out)
        assert from_file[1].count("\n") == 3  # one site: no manifold residual


_RUN_FLAGS = {"--" + f.name.replace("_", "-") for f in fields(RunConfig)}


class TestCommandFlags:
    @pytest.mark.parametrize("command,flags", [
        ("run", _RUN_FLAGS - {"--workers"}),
        ("correlate", _RUN_FLAGS - {"--workers"}),
        ("sweep", _RUN_FLAGS | {"--param", "--values", "--trajectories"}),
        ("mf-curve", {"--jx", "--jz", "--gamma", "--out", "--values"}),
        ("oracle-check", {"--width", "--height", "--jx", "--jy", "--jz", "--gamma", "--t-total", "--dt",
                          "--seed", "--out", "--sites", "--trajectories"}),
    ])
    def test_help_lists_only_the_table_flags(self, capsys, command, flags):
        assert main([command, "--help"]) == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == flags | {"--help", "--config"}
        assert {"--" + k.replace("_", "-") for k in COMMANDS[command]} == flags

    @pytest.mark.parametrize("command,flag", [
        *[(c, "--workers") for c in ("run", "correlate")],
        *[(c, "--max-jump-prob") for c in ("run", "correlate", "sweep")],
        *[("mf-curve", f) for f in ("--width", "--height", "--jy", "--t-total", "--burn-in",
                                    "--sample-interval", "--dt", "--max-jump-prob", "--seed",
                                    "--initial-state", "--engine", "--workers")],
        *[("oracle-check", f) for f in ("--engine", "--initial-state", "--burn-in", "--sample-interval",
                                        "--max-jump-prob", "--workers", "--corrupt-jumps")],
    ])
    def test_removed_flag_refused(self, tmp_path, capsys, monkeypatch, command, flag):
        # a flag a command does not read is a parser error, with a value it would take
        monkeypatch.chdir(tmp_path)
        value = {"--engine": "gutzwiller", "--initial-state": "plus_x", "--max-jump-prob": "0.05",
                 "--dt": "0.01", "--corrupt-jumps": None}.get(flag, "1")
        assert main([command, flag] + ([value] if value else [])) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        pytest.param(["run", "--nosuch", "1"], id="unknown"),
        pytest.param(["run", "--engine", "magic"], id="choice"),
        pytest.param(["oracle-check", "--sites", "3"], id="sites-choice"),
        pytest.param(["sweep", "--param", "jx", "--values", "1"], id="param-choice"),
        pytest.param(["run", "--width", "abc"], id="non-number"),
        pytest.param(["oracle-check", "--trajectories", "1e3"], id="non-integer"),
        pytest.param([], id="no-command"),
    ])
    def test_parser_errors_exit_1(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error: " in captured.err and captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["sweep", "-h"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out

    # one changed value per registered flag; the meta echo does not count
    MF_BASE = ["--values", "1.2,2.5"]
    MF_CHANGES = {"jx": "0.8", "jz": "1.1", "gamma": "2", "out": "other", "values": "1.3,2.5",
                  "config": "jx = 0.8"}
    ORACLE_BASE = ["--sites", "2", "--trajectories", "40", "--t-total", "2"]
    ORACLE_CHANGES = {"jx": "0.8", "jy": "1.5", "jz": "1.1", "gamma": "0.5", "t_total": "3", "dt": "0.005",
                      "seed": "2", "sites": "1", "trajectories": "50", "config": "jy = 1.5"}
    # oracle-check reads no width, height or out; perfbench passes them to every command
    ORACLE_UNREAD = {"width", "height", "out"}

    @pytest.mark.parametrize("command,base,changes,unread", [
        ("mf-curve", MF_BASE, MF_CHANGES, set()),
        ("oracle-check", ORACLE_BASE, ORACLE_CHANGES, ORACLE_UNREAD),
    ], ids=["mf-curve", "oracle-check"])
    def test_every_flag_changes_the_output(self, tmp_path, capsys, monkeypatch, command, base, changes,
                                           unread):
        assert set(changes) == set(COMMANDS[command]) - unread | {"config"}

        def output(name, extra):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert main([command, *base, *extra]) in (0, 2)
            csvs = {p.name: p.read_bytes() for p in Path().glob("*.csv")}
            return capsys.readouterr().out, csvs

        reference = output("reference", [])
        for key, value in changes.items():
            if key == "config":
                (tmp_path / "cfg.txt").write_text(value + "\n")
                value = str(tmp_path / "cfg.txt")
            assert output(key, ["--" + key.replace("_", "-"), value]) != reference, key


def test_read_ahead_changes_no_output(tmp_path, monkeypatch):
    # Philox is counter-based: drawing one step at a time gives the bits of
    # the default read-ahead block, for solo runs and batched sweeps alike
    def outputs(name):
        runs = (
            ["run", *_run_args(tmp_path, name, width="4", height="4")],
            ["run", *_run_args(tmp_path, name + "_full", engine="fullwfmc", width="2", height="1")],
            ["sweep", *_run_args(tmp_path, name, workers="1"), "--values", "1.2,2.5", "--trajectories", "2"],
        )
        for argv in runs:
            assert main(argv) == 0
        return [_read(tmp_path / f"{name}{suffix}.csv") for suffix in ("_series", "_full_series", "_sweep")]

    block = outputs("block")
    monkeypatch.setattr(dynamics, "READ_AHEAD", 1)
    assert outputs("step") == block


def _perfbench_module(monkeypatch, name):
    """Load perfbench/<name>.py unedited, as the benchmark runs it."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_setup_child_runs(monkeypatch):
    # the benchmark's set-up child builds each workload's inputs from src;
    # a refactor that drops a name it imports must fail here first
    run = _perfbench_module(monkeypatch, "run")
    child = _perfbench_module(monkeypatch, "child")
    for workload in run.WORKLOADS.values():
        child.setup(workload.width, workload.height, workload.pairs, 1)


def test_benchmark_command_lines_parse(monkeypatch):
    # perfbench/run.py runs these command lines; a CLI change that refuses
    # one must fail here first
    run = _perfbench_module(monkeypatch, "run")
    assert len(run.WORKLOADS) == 4
    for workload in run.WORKLOADS.values():
        for traced in (False, True):
            args = build_parser().parse_args(workload.argv(1, traced=traced))
            assert args.command == workload.subcommand
