from __future__ import annotations

import argparse
import json
import os
import re
import stat
import subprocess
import sys

import pytest

import linksched
from linksched import cli, occupancy_lp
from linksched.cli import main
from linksched.construction import MassRangeError
from linksched.model import builtin_config_names, load_config
from linksched.occupancy_lp import ReducibleChainError
from linksched.simplex import SimplexResult
from linksched.sweep import SweepError, default_lambda_max


@pytest.fixture()
def bad_cfg(tmp_path, request):
    """A config file with one bad field, given as (section or None, key,
    value); by default alphas that sum to 1.1."""
    raw = {"arrival": {"alphas": [0.4, 0.3, 0.3]},
           "channel": {"kind": "uniform", "h_min": 0.5, "h_max": 10.0},
           "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"}
    section, key, value = getattr(request, "param",
                                  ("arrival", "alphas", [0.5, 0.6]))
    (raw[section] if section else raw)[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    return str(p)


def _solve(outdir, bins=4, dth="3.0"):
    return main(["solve", "--dth", dth, "--bins", str(bins),
                 "--outdir", str(outdir)])


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert _solve(tmp_path) == 0

    def test_no_subcommand_is_usage(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage(self, tmp_path):
        assert main(["solve", "--dth", "3.0", "--frobnicate"]) == 1

    def test_missing_config_file_is_usage(self, tmp_path, capsys):
        rc = main(["solve", "--dth", "3.0", "--config",
                   str(tmp_path / "nope.json"), "--outdir", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "--config", "{tmp}", "--outdir", "{tmp}/out"],
        ["solve", "--config", "tiny", "--bins", "2", "--dth", "3",
         "--outdir", "{tmp}/file"],
        ["simulate", "--config", "tiny", "--bins", "2", "--policy", "{tmp}",
         "--outdir", "{tmp}/out"],
    ], ids=["config-is-a-directory", "outdir-is-a-file",
            "policy-is-a-directory"])
    def test_path_of_the_wrong_kind_is_usage(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        rc = main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_config_error_names_offending_field(self, tmp_path, bad_cfg,
                                                capsys):
        rc = main(["solve", "--dth", "3.0", "--config", bad_cfg,
                   "--outdir", str(tmp_path)])
        assert rc == 1
        assert "alphas" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_cfg,named", [
        (("channel", "h_min", None), "'channel.h_min'"),
        (("channel", "h_min", "abc"), "'channel.h_min'"),
        ((None, "xi", [0, "x", 3]), "'xi'"),
        ((None, "Q", True), "'Q'"),
        (("arrival", "alphas", [True, False]), "'arrival.alphas'"),
    ], indirect=["bad_cfg"],
        ids=["h_min-null", "h_min-text", "xi-text", "Q-bool", "alphas-bool"])
    def test_non_number_field_is_named(self, tmp_path, bad_cfg, named,
                                       capsys):
        rc = main(["solve", "--dth", "3.0", "--config", bad_cfg,
                   "--outdir", str(tmp_path)])
        assert rc == 1
        assert named in capsys.readouterr().err

    def test_unreachable_budget_is_infeasible(self, tmp_path):
        assert _solve(tmp_path, dth="0.01") == 2

    def test_solver_anomaly_is_three(self, tmp_path, monkeypatch, capsys):
        # the min-delay solve behind the default budget grid fails
        occupancy_lp.min_delay.cache_clear()
        monkeypatch.setattr(occupancy_lp, "solve_simplex",
                            lambda lp, *_: SimplexResult(status="unbounded"))
        rc = main(["vertices", "--bins", "2", "--outdir", str(tmp_path)])
        assert rc == 3
        assert "min-delay solve returned unbounded" in capsys.readouterr().err

    def test_failed_weighted_solve_names_lambda(self, tmp_path, monkeypatch,
                                                capsys):
        # the min-delay solve goes through, the first weighted one fails
        real = occupancy_lp.solve_simplex
        calls = []

        def fail_after_first(lp, start=None):
            calls.append(lp)
            if len(calls) == 1:
                return real(lp, start)
            return SimplexResult(status="unbounded")

        occupancy_lp.min_delay.cache_clear()
        monkeypatch.setattr(occupancy_lp, "solve_simplex", fail_after_first)
        rc = main(["vertices", "--bins", "2", "--full", "--config", "tiny",
                   "--outdir", str(tmp_path)])
        assert rc == 3
        lam = default_lambda_max(load_config("tiny"))
        assert (f"weighted solve at lam={lam!r} returned unbounded"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("alphas,h_min,q,s_max,argv", [
        # HiGHS: power 0.106431; the simplex's point missed bin row 0 by 0.73
        ([0.589, 0.266, 0.145], 0.1, 10, 4,
         ["solve", "--bins", "2", "--dth", "3"]),
        # HiGHS and the drain-fast policy: minimum delay 1.0, not 134.957
        ([0.99, 0.009, 0.001], 0.5, 8, 2, ["vertices", "--bins", "4"]),
    ], ids=["solve", "min-delay"])
    def test_point_off_its_rows_is_three(self, tmp_path, capsys, alphas,
                                         h_min, q, s_max, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "arrival": {"alphas": alphas},
            "channel": {"kind": "uniform", "h_min": h_min, "h_max": 10.0},
            "Q": q, "S_max": s_max, "xi_kind": "exp2minus1"}))
        rc = main([*argv, "--config", str(cfg), "--outdir", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert re.search(r"optimal point breaks equality row \d+ by ", err)
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("exc", [MassRangeError, ReducibleChainError])
    def test_verification_failure_is_four(self, tmp_path, monkeypatch, exc):
        # both subclass ValueError, which otherwise maps to usage (1)
        def fail(*args, **kwargs):
            raise exc("injected")

        monkeypatch.setattr(cli, "compute_thresholds", fail)
        rc = main(["construct", "--dth", "3.0", "--bins", "2", "--M", "4",
                   "--outdir", str(tmp_path)])
        assert rc == 4

    def test_version_exits_zero(self):
        assert main(["--version"]) == 0

    def test_decreasing_bin_list_is_usage(self, tmp_path, capsys):
        rc = main(["sweep", "--bins-list", "4,2", "--outdir", str(tmp_path)])
        assert rc == 1
        assert "increasing" in capsys.readouterr().err

    def test_repeated_bin_count_is_usage(self, tmp_path, capsys):
        # one curve_m2.csv cannot hold two curves
        rc = main(["sweep", "--bins-list", "2,2", "--outdir", str(tmp_path)])
        assert rc == 1
        assert "increasing" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_all_budgets_infeasible_is_two(self, tmp_path, capsys):
        rc = main(["sweep", "--bins-list", "2", "--dgrid", "0.01,0.02",
                   "--outdir", str(tmp_path)])
        assert rc == 2
        assert "all 2 budgets infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (["construct", "--bins", "2", "--dth", "3", "--M", "0"], "got 0"),
        (["construct", "--bins", "2", "--dth", "3", "--M", "-2"], "got -2"),
        (["sweep", "--bins-list", ","], "bin counts must be nonempty"),
        (["sweep", "--bins-list", "2", "--dgrid", ","],
         "budget grid must be nonempty"),
        (["solve", "--bins", "2", "--dth", "nan"], "got nan"),
        (["sweep", "--bins-list", "2", "--dgrid", "nan"], "got nan"),
        (["solve", "--bins", "2", "--dth", "inf"], "got inf"),
        (["solve", "--bins", "2", "--dth=-inf"], "got -inf"),
        (["sweep", "--bins-list", "2", "--dgrid", "1,inf"], "got inf"),
    ], ids=["cells-0", "cells-negative", "empty-bin-list", "empty-grid",
            "nan-budget", "nan-grid", "inf-budget", "minus-inf-budget",
            "inf-grid"])
    def test_bad_value_is_usage(self, tmp_path, capsys, argv, named):
        rc = main([*argv, "--config", "tiny", "--outdir", str(tmp_path)])
        assert rc == 1
        assert named in capsys.readouterr().err


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestSolveCounts:
    """A budget grid and a corner search on one discretization share
    one min-delay solve."""

    @pytest.mark.parametrize("argv,solves", [
        (["vertices", "--bins", "4"], 64), (["verify"], 89)],
        ids=["vertices", "verify"])
    def test_min_delay_solved_once(self, tmp_path, monkeypatch, argv,
                                   solves):
        real = occupancy_lp.solve_simplex
        calls = []

        def record(lp, start=None):
            calls.append(lp)
            return real(lp, start)

        occupancy_lp.min_delay.cache_clear()
        monkeypatch.setattr(occupancy_lp, "solve_simplex", record)
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
        assert len(calls) == solves


class TestManifest:
    # one cheap run per subcommand on the tiny config; simulate reads
    # the policy that solve wrote
    RUNS = {
        "solve": ["--bins", "2", "--dth", "3"],
        "sweep": ["--bins-list", "1,2", "--dgrid", "3"],
        "vertices": ["--bins", "2"],
        "construct": ["--bins", "2", "--dth", "3", "--M", "4"],
        "simulate": ["--policy", "solve/policy.csv", "--bins", "2",
                     "--slots", "2000"],
        "verify": [],
    }

    def test_params_name_every_option(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sub = _subcommands()
        assert list(sub) == list(self.RUNS)
        for name, sp in sub.items():
            main([name, "--config", "tiny", *self.RUNS[name],
                  "--outdir", name])
            manifest = json.loads((tmp_path / name / "manifest.json")
                                  .read_text())
            options = {a.dest for a in sp._actions if a.option_strings
                       and a.dest not in ("help", "config")}
            assert options - set(manifest["params"]) == set(), name

    def test_rerunning_params_reproduces_outputs(self, tmp_path, monkeypatch):
        """argv rebuilt from a manifest's params writes the same bytes."""
        monkeypatch.chdir(tmp_path)
        for name, sp in _subcommands().items():
            assert main([name, "--config", "tiny", *self.RUNS[name],
                         "--outdir", name]) == 0, name
            man = json.loads((tmp_path / name / "manifest.json").read_text())
            flags = {a.dest: a.option_strings[0] for a in sp._actions
                     if a.option_strings}
            argv = [man["command"], "--config", man["config"]]
            params = {**man["params"], "outdir": f"{name}_again"}
            for dest, value in params.items():
                if value is None or value is False:
                    continue
                argv.append(flags[dest])
                if isinstance(value, list):
                    argv.append(",".join(map(str, value)))
                elif value is not True:
                    argv.append(str(value))
            assert main(argv) == 0, argv
            first = sorted(p.name for p in (tmp_path / name).iterdir())
            again = sorted(p.name for p in (tmp_path / f"{name}_again").iterdir())
            assert first == again, name
            for f in first:
                if f != "manifest.json":
                    assert ((tmp_path / name / f).read_bytes()
                            == (tmp_path / f"{name}_again" / f).read_bytes()), f


class TestSolveOutputs:
    def test_files_and_manifest(self, tmp_path):
        assert _solve(tmp_path) == 0
        for name in ("measure.csv", "policy.csv", "metrics.txt",
                     "manifest.json"):
            assert (tmp_path / name).exists()
        metrics = dict(ln.split("=", 1) for ln in
                       (tmp_path / "metrics.txt").read_text().splitlines())
        assert metrics["status"] == "optimal"
        assert float(metrics["power"]) == pytest.approx(
            float(metrics["objective"]), abs=1e-12)
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["command"] == "solve"
        assert man["params"]["bins"] == 4
        assert set(man) == {"command", "config", "params", "version",
                            "timestamp"}

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _solve(a) == 0 and _solve(b) == 0
        for name in ("measure.csv", "policy.csv", "metrics.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        ma.pop("timestamp"), mb.pop("timestamp")
        ma["params"].pop("outdir"), mb["params"].pop("outdir")
        assert ma == mb

    def test_files_get_the_mode_open_gives(self, tmp_path):
        old = os.umask(0o022)
        try:
            assert main(["solve", "--config", "tiny", "--bins", "2",
                         "--dth", "3.0", "--outdir", str(tmp_path)]) == 0
        finally:
            os.umask(old)
        for name in ("measure.csv", "policy.csv", "metrics.txt",
                     "manifest.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644

    def test_outdir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LINKSCHED_OUTDIR", str(tmp_path / "env"))
        assert main(["solve", "--dth", "3.0", "--bins", "4"]) == 0
        assert (tmp_path / "env" / "metrics.txt").exists()


class TestSweepOutputs:
    def test_curves_and_gaps(self, tmp_path, capsys):
        rc = main(["sweep", "--bins-list", "1,2", "--dgrid", "1.0,2.0,3.0",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        assert "curves for M=[1, 2] ([3, 3] budgets)" in capsys.readouterr().out
        for m in (1, 2):
            lines = (tmp_path / f"curve_m{m}.csv").read_text().splitlines()
            assert lines[0] == "M,D_th,P"
            assert len(lines) == 4
            assert all(ln.startswith(f"{m},") for ln in lines[1:])
        gaps = (tmp_path / "sup_gaps.txt").read_text().splitlines()
        assert gaps[0] == "pair,sup_gap"
        assert gaps[1].startswith("1-2,")

    def test_infeasible_budgets_are_named(self, tmp_path, capsys):
        # 0.5 is below d_min: the curve holds the other three budgets,
        # and the manifest names the one it dropped
        rc = main(["sweep", "--config", "paper_iv", "--bins-list", "4",
                   "--dgrid", "0.5,1.2,1.2,3", "--outdir", str(tmp_path)])
        assert rc == 0
        assert "M=[4] ([3] budgets)" in capsys.readouterr().out
        rows = (tmp_path / "curve_m4.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["1.2", "1.2", "3"]
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["infeasible_budgets"] == {"4": [0.5]}
        assert man["params"]["dgrid"] == [0.5, 1.2, 1.2, 3.0]


class TestCaches:
    def test_a_command_frees_the_cached_lp(self, tmp_path):
        # the LP and the min-delay answer do not outlive the command
        assert main(["vertices", "--bins", "2", "--outdir",
                     str(tmp_path)]) == 0
        assert occupancy_lp._lp.cache_info().currsize == 0
        assert occupancy_lp.min_delay.cache_info().currsize == 0

    def test_construct_after_solve_writes_the_same_bytes(self, tmp_path):
        construct = ["construct", "--bins", "4", "--dth", "3.0", "--M", "50"]
        assert main([*construct, "--outdir", str(tmp_path / "alone")]) == 0
        assert _solve(tmp_path / "solve") == 0
        assert main([*construct, "--outdir", str(tmp_path / "after")]) == 0
        for name in ("thresholds.csv", "report.txt"):
            assert ((tmp_path / "alone" / name).read_bytes()
                    == (tmp_path / "after" / name).read_bytes()), name


class TestImports:
    def test_construct_and_sweep_leave_numpy_ma_out(self, tmp_path):
        # np.unique and np.intersect1d import numpy.ma on their first call
        code = (
            "import sys\n"
            "from linksched.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "assert main(['construct', '--config', 'tiny', '--bins', '2',"
            " '--dth', '1.5', '--M', '4', '--outdir', out + '/c']) == 0\n"
            "assert main(['sweep', '--config', 'tiny', '--bins-list', '1,2',"
            " '--outdir', out + '/s']) == 0\n"
            "sys.exit('numpy.ma' in sys.modules and 'numpy.ma imported')\n")
        src = os.path.dirname(os.path.dirname(linksched.__file__))
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestVerticesOutputs:
    def test_default_span(self, tmp_path):
        rc = main(["vertices", "--bins", "2", "--outdir", str(tmp_path)])
        assert rc == 0
        vlines = (tmp_path / "vertices_m2.csv").read_text().splitlines()
        assert vlines[0] == "M,D,P,policy_id"
        n = len(vlines) - 1
        dlines = (tmp_path / "distances_m2.csv").read_text().splitlines()
        assert len(dlines) - 1 == n - 1
        for ln in vlines[1:]:
            pid = ln.split(",")[-1]
            assert (tmp_path / f"{pid}.txt").exists()


class TestConstructAndSimulate:
    def test_construct_then_simulate_threshold_file(self, tmp_path):
        rc = main(["construct", "--dth", "3.0", "--bins", "4", "--M", "8",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        report = dict(ln.split("=", 1) for ln in
                      (tmp_path / "report.txt").read_text().splitlines())
        assert report["deterministic"] == "True"
        assert float(report["power_ratio"]) >= 1.0 - 1e-10
        assert float(report["power_ratio"]) <= float(report["ratio_bound"])
        sim = tmp_path / "sim"
        rc = main(["simulate", "--policy", str(tmp_path / "thresholds.csv"),
                   "--slots", "20000", "--seed", "3", "--outdir", str(sim)])
        assert rc == 0
        rep = dict(ln.split("=", 1) for ln in
                   (sim / "report.txt").read_text().splitlines())
        assert rep["drops"] == "0"
        assert rep["underflow_overrides"] == "0"
        assert not (sim / "trace.csv").exists()

    def test_simulate_bin_policy_needs_bins(self, tmp_path, capsys):
        assert _solve(tmp_path) == 0
        rc = main(["simulate", "--policy", str(tmp_path / "policy.csv"),
                   "--slots", "5000", "--outdir", str(tmp_path / "s")])
        assert rc == 1
        assert "--bins" in capsys.readouterr().err

    def test_simulate_bin_policy_reruns_identically(self, tmp_path):
        assert _solve(tmp_path) == 0
        s1, s2 = tmp_path / "s1", tmp_path / "s2"
        for s in (s1, s2):
            rc = main(["simulate", "--policy", str(tmp_path / "policy.csv"),
                       "--bins", "4", "--slots", "20000", "--seed", "5",
                       "--trace", "--outdir", str(s)])
            assert rc == 0
        assert (s1 / "report.csv").read_bytes() == (s2 / "report.csv").read_bytes()
        assert (s1 / "trace.csv").read_bytes() == (s2 / "trace.csv").read_bytes()

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_failed_simulation_leaves_no_trace(self, tmp_path, monkeypatch,
                                               exc):
        assert _solve(tmp_path) == 0

        def failing(*args, trace_path=None, **kwargs):
            with open(trace_path, "w") as f:
                f.write("slot,q,a,h,s,energy\n0,0,1,0.5,0,0\n")
            raise exc("simulation failed")

        monkeypatch.setattr(cli, "run_sim", failing)
        out = tmp_path / "s"
        argv = ["simulate", "--policy", str(tmp_path / "policy.csv"),
                "--bins", "4", "--slots", "5000", "--trace",
                "--outdir", str(out)]
        if exc is ValueError:
            assert main(argv) == 1
        else:
            with pytest.raises(exc):
                main(argv)
        assert list(out.iterdir()) == []

    def test_simulate_rejects_unknown_header(self, tmp_path, capsys):
        p = tmp_path / "weird.csv"
        p.write_text("a,b,c\n1,2,3\n")
        rc = main(["simulate", "--policy", str(p),
                   "--outdir", str(tmp_path)])
        assert rc == 1
        assert "unrecognized policy header" in capsys.readouterr().err


class TestPolicyFileRows:
    """Out-of-range rows exit 1 naming the line, for both file kinds."""

    @pytest.mark.parametrize("row", ["99,0,1,1,0", "-1,0,0,1,0",
                                     "1,4,1,1,0", "2,0,3,1,0"])
    def test_bin_policy(self, tmp_path, capsys, row):
        p = tmp_path / "policy.csv"
        p.write_text(f"q,k,s,prob,transient\n0,0,0,1,0\n{row}\n")
        rc = main(["simulate", "--policy", str(p), "--bins", "4",
                   "--slots", "5000", "--outdir", str(tmp_path / "s")])
        assert rc == 1
        assert row in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["-1,0.5,10,7,0", "11,0.5,10,0,0",
                                     "0,0.5,10,3,0"])
    def test_threshold_policy(self, tmp_path, capsys, row):
        p = tmp_path / "thresholds.csv"
        p.write_text(f"q,h_lo,h_hi,s,transient\n0,0.5,10,0,0\n{row}\n")
        rc = main(["simulate", "--policy", str(p), "--slots", "5000",
                   "--outdir", str(tmp_path / "s")])
        assert rc == 1
        assert row in capsys.readouterr().err


class TestPolicyFileMeaning:
    """Files whose rows parse but do not describe a policy exit 1,
    naming the queue state (and bin) at fault."""

    # drain at every (q, k) of paper_iv with 2 bins: a valid policy
    DRAIN = "".join(f"{q},{k},{min(q, 2)},1,0\n"
                    for q in range(11) for k in range(2))

    @pytest.mark.parametrize("body,named", [
        (DRAIN, None),
        ("1,0,0,0.3,0\n", "q=0, k=0"),
        (DRAIN.replace("1,0,1,1,0", "1,0,1,0.3,0"), "q=1, k=0"),
        (DRAIN.replace("3,1,2,1,0\n", ""), "q=3, k=1"),
        (DRAIN.replace("4,0,2,1,0", "4,0,2,0.5,0\n4,0,1,0.6,0"), "q=4, k=0"),
        (DRAIN + "1,0,1\n", "'1,0,1'"),
        (DRAIN.replace("0,0,0,1,0", "0,0,0,abc,0"), "'0,0,0,abc,0'"),
        ("x,0,0,1,0\n", "'x,0,0,1,0'"),
    ], ids=["valid", "only-row-0.3", "row-0.3", "row-missing", "row-1.1",
            "three-fields", "prob-not-a-number", "q-not-a-number"])
    def test_bin_policy(self, tmp_path, capsys, body, named):
        p = tmp_path / "policy.csv"
        p.write_text("q,k,s,prob,transient\n" + body)
        rc = main(["simulate", "--policy", str(p), "--bins", "2",
                   "--slots", "5000", "--outdir", str(tmp_path / "s")])
        assert rc == (0 if named is None else 1)
        if named is not None:
            assert named in capsys.readouterr().err

    @pytest.mark.parametrize("body,named", [
        ("0,0.5,10,0,0\n1,0.5,4,0,0\n1,4,10,1,0\n", None),
        ("0,0.5,10,0,0\n1,4,6,1,0\n", "q=1"),
        ("0,0.5,10,0,0\n1,0.5,3,0,0\n1,4,10,1,0\n", "q=1"),
        ("0,0.5,10,0,0\n1,0.5,5,0,0\n1,4,10,1,0\n", "q=1"),
        ("0,0.5,10,0,0\n1,0.5,4,0,0\n1,4,4,1,0\n1,4,10,1,0\n", "q=1"),
        ("0,0.5,9,0,0\n", "q=0"),
        ("0,0.5,10\n", "'0,0.5,10'"),
        ("0,0.5,ten,0,0\n", "'0,0.5,ten,0,0'"),
    ], ids=["valid", "starts-late", "gap", "overlap", "empty-rule",
            "ends-early", "three-fields", "h-not-a-number"])
    def test_threshold_policy(self, tmp_path, capsys, body, named):
        p = tmp_path / "thresholds.csv"
        p.write_text("q,h_lo,h_hi,s,transient\n" + body)
        rc = main(["simulate", "--policy", str(p), "--slots", "5000",
                   "--outdir", str(tmp_path / "s")])
        assert rc == (0 if named is None else 1)
        if named is not None:
            assert named in capsys.readouterr().err


class TestVerifyBattery:
    @pytest.mark.parametrize("config", builtin_config_names())
    def test_all_pass_on_builtin_config(self, tmp_path, config):
        rc = main(["verify", "--config", config, "--outdir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "verify.txt").read_text().splitlines()
        assert len(lines) >= 15
        assert all(ln.startswith("PASS") for ln in lines)

    @pytest.mark.parametrize("name,line", [
        ("convergence_study", "curve refinement dominance"),
        ("enumerate_vertices", "corner policies deterministic"),
    ])
    def test_sweep_check_failure_is_four(self, tmp_path, monkeypatch, name,
                                         line):
        def fail(*args, **kwargs):
            raise SweepError("injected")

        monkeypatch.setattr(cli, name, fail)
        rc = main(["verify", "--config", "tiny", "--outdir", str(tmp_path)])
        assert rc == 4
        lines = (tmp_path / "verify.txt").read_text().splitlines()
        assert f"FAIL  {line}  (injected)" in lines
        assert sum(ln.startswith("FAIL") for ln in lines) == 1
