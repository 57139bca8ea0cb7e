import numpy as np
import pytest

from gwmc.cli import ENGINES, RunConfig, SweepConfig, main, parse_kv_file, run_sweep
from gwmc.errors import ConfigError
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
        back = RunConfig.from_mapping(cfg.to_mapping())
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

    @pytest.mark.parametrize("line", ["width = 2.5", "seed = one", "jy = strong"])
    def test_malformed_config_file_value(self, tmp_path, capsys, line):
        config = tmp_path / "cfg.txt"
        config.write_text(line + "\n")
        args = ["--config", str(config), "--t-total", "5", "--burn-in", "1", "--out", str(tmp_path / "mf")]
        assert main(["run", *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [config]

    def test_malformed_workers_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GWMC_WORKERS", "two")
        args = _run_args(tmp_path, "w", width="2", height="2", **{"t-total": "2", "burn-in": "0.5"})
        assert main(["run", *args]) == 1
        assert capsys.readouterr().err.startswith("error: GWMC_WORKERS")
        assert not list(tmp_path.iterdir())

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
        args = _run_args(tmp_path, "s") + ["--values", values]
        assert main([command, *args]) == 1
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

    def test_corrupted_jump_fails(self, capsys):
        code = main(["oracle-check", "--sites", "2", "--trajectories", "600",
                     "--t-total", "3", "--seed", "7", "--corrupt-jumps"])
        assert code == 2
        assert "FAIL unraveling_exactness" in capsys.readouterr().out
