from __future__ import annotations

import argparse
import json

import pytest

from linksched import cli, occupancy_lp
from linksched.cli import main
from linksched.construction import MassRangeError
from linksched.model import builtin_config_names
from linksched.occupancy_lp import ReducibleChainError
from linksched.simplex import SimplexResult


@pytest.fixture()
def bad_cfg(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "arrival": {"alphas": [0.5, 0.6]},
        "channel": {"kind": "uniform", "h_min": 0.5, "h_max": 10.0},
        "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"}))
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

    def test_config_error_names_offending_field(self, tmp_path, bad_cfg,
                                                capsys):
        rc = main(["solve", "--dth", "3.0", "--config", bad_cfg,
                   "--outdir", str(tmp_path)])
        assert rc == 1
        assert "alphas" in capsys.readouterr().err

    def test_unreachable_budget_is_infeasible(self, tmp_path):
        assert _solve(tmp_path, dth="0.01") == 2

    def test_solver_anomaly_is_three(self, tmp_path, monkeypatch, capsys):
        # the min-delay solve behind the default budget grid fails
        monkeypatch.setattr(occupancy_lp, "solve_simplex",
                            lambda lp: SimplexResult(status="unbounded"))
        rc = main(["vertices", "--bins", "2", "--outdir", str(tmp_path)])
        assert rc == 3
        assert "min-delay solve returned unbounded" in capsys.readouterr().err

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
        assert "nondecreasing" in capsys.readouterr().err

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
    ], ids=["cells-0", "cells-negative", "empty-bin-list", "empty-grid",
            "nan-budget", "nan-grid"])
    def test_bad_value_is_usage(self, tmp_path, capsys, argv, named):
        rc = main([*argv, "--config", "tiny", "--outdir", str(tmp_path)])
        assert rc == 1
        assert named in capsys.readouterr().err


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


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

    def test_outdir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LINKSCHED_OUTDIR", str(tmp_path / "env"))
        assert main(["solve", "--dth", "3.0", "--bins", "4"]) == 0
        assert (tmp_path / "env" / "metrics.txt").exists()


class TestSweepOutputs:
    def test_curves_and_gaps(self, tmp_path):
        rc = main(["sweep", "--bins-list", "1,2", "--dgrid", "1.0,2.0,3.0",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        for m in (1, 2):
            lines = (tmp_path / f"curve_m{m}.csv").read_text().splitlines()
            assert lines[0] == "M,D_th,P"
            assert len(lines) == 4
            assert all(ln.startswith(f"{m},") for ln in lines[1:])
        gaps = (tmp_path / "sup_gaps.txt").read_text().splitlines()
        assert gaps[0] == "pair,sup_gap"
        assert gaps[1].startswith("1-2,")


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
