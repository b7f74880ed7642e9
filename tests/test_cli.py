import argparse
import ast
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fflab
from fflab import analyzer, cli, theory
from fflab.analyzer import analyze_matrix
from fflab.cli import main
from fflab.gf2 import BitMatrix
from fflab.harness import compare_to_theory, headline_checks, run_campaign
from fflab.models import ModelConfig, sample, serialize_matrix


def run_cli(*argv):
    return main(list(argv))


class TestTheoryCommand:
    def test_headline_constants_without(self, capsys):
        assert run_cli("theory", "--replacement", "without") == 0
        out = capsys.readouterr().out
        assert "phi = 0.1151" in out
        assert "Pr(full rank) = 0.2574" in out

    def test_headline_constants_with(self, capsys):
        assert run_cli("theory", "--replacement", "with") == 0
        assert "phi = 0.5215" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        # --out is the path itself, with or without a .json suffix
        for name in ("table.json", "table"):
            out = tmp_path / name
            assert run_cli("theory", "--out", str(out)) == 0
            assert capsys.readouterr().out.endswith(f"wrote {out}\n")
            table = json.loads(out.read_text())
            assert table["model"] == "without"
            assert abs(table["corank"][0] - 0.2574) < 5e-4
        assert sorted(path.name for path in tmp_path.iterdir()) == ["table", "table.json"]


class TestSimulateCommand:
    def test_smoke_identical_record_files(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for path in (a, b):
            code = run_cli("simulate", "--n", "100", "--trials", "10",
                           "--seed", "7", "--records", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_output_echoes_seed(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        assert run_cli("simulate", "--n", "60", "--trials", "5", "--seed",
                       "42", "--out", str(out)) == 0
        summary = json.loads(out.read_text())
        assert summary["master_seed"] == 42
        assert "seed=42" in capsys.readouterr().out

    def test_summary_json_is_strict(self, tmp_path, capsys):
        # a GF(p) campaign has no sigma, so no dispersion: null, not NaN
        out = tmp_path / "s.json"
        assert run_cli("simulate", "--p", "3", "--gft-model", "1", "--n", "60",
                       "--trials", "5", "--out", str(out)) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads(out.read_text(), parse_constant=refuse)
        assert summary["sigma_dispersion"] is None

    def test_check_requires_comparable_model(self, tmp_path, monkeypatch, capsys):
        def no_campaign(*args, **kwargs):
            raise AssertionError("sampled before rejecting the model")

        monkeypatch.setattr(cli, "run_campaign", no_campaign)
        records = tmp_path / "records.jsonl"
        for model in (("--s", "2"), ("--p", "3", "--gft-model", "1")):
            code = run_cli("simulate", "--n", "50", *model, "--trials", "5",
                           "--check", "--records", str(records))
            assert code == 2
            assert not records.exists()
            assert "--check applies" in capsys.readouterr().err

    def test_check_prints_what_the_verdict_reads(self, capsys):
        code = run_cli("simulate", "--n", "100", "--trials", "60", "--seed", "3",
                       "--check")
        out = capsys.readouterr().out
        _, summary = run_campaign(ModelConfig(n=100, master_seed=3), trials=60)
        table = theory.build_table(theory.WITHOUT)
        fit = compare_to_theory(summary, table)
        checks = headline_checks(summary, fit, table)
        assert out.splitlines()[-2 - len(checks):] == [
            f"corank0 emp={fit.corank0_emp:.4f} theory=0.2574 (3se={3 * fit.corank0_se:.4f})",
            f"tv_corank={fit.tv_corank:.4f} tv_joint={fit.tv_joint:.4f}",
            *(f"check {name}: {'PASS' if ok else 'FAIL'}" for name, ok in checks.items()),
        ]
        assert "chi2" not in out
        assert code == (0 if all(checks.values()) else 1)


class TestAnalyzeCommand:
    def test_identity_fixture(self, tmp_path, capsys):
        path = tmp_path / "id.mat"
        path.write_text(serialize_matrix(BitMatrix.identity(12)))
        assert run_cli("analyze", "--matrix", str(path)) == 0
        out = capsys.readouterr().out
        assert "corank=0" in out

    def test_duplicated_row_fixture(self, tmp_path, capsys):
        dense = np.eye(10, dtype=np.uint8)
        dense[9] = dense[0]
        path = tmp_path / "dup.mat"
        path.write_text(serialize_matrix(BitMatrix.from_dense(dense)))
        assert run_cli("analyze", "--matrix", str(path)) == 0
        out = capsys.readouterr().out
        assert "corank=1" in out
        assert "sigma=1" in out
        assert "weights=[2]" in out

    def test_parse_failure_exits_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "bad.mat"
        path.write_text("gf2 2 2\n0:1 junk\n1:1\n")
        assert run_cli("analyze", "--matrix", str(path)) == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "column" in err

    def test_replay_matches_in_process_report(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run_cli("analyze", "--n", "80", "--seed", "5", "--trial", "3",
                       "--out", str(out)) == 0
        got = json.loads(out.read_text())
        cfg = ModelConfig(n=80, master_seed=5)
        expect = analyze_matrix(sample(cfg, 3)).to_json_dict()
        assert got == expect

    def test_roundtrip_through_fixture_file(self, tmp_path, capsys):
        cfg = ModelConfig(n=50, master_seed=11)
        m = sample(cfg, 0)
        path = tmp_path / "m.mat"
        path.write_text(serialize_matrix(m))
        out = tmp_path / "rep.json"
        assert run_cli("analyze", "--matrix", str(path), "--out", str(out)) == 0
        got = json.loads(out.read_text())
        assert got == analyze_matrix(m).to_json_dict()

    def test_gfp_fixture(self, tmp_path, capsys):
        cfg = ModelConfig(n=20, p=3, gft_model=1, master_seed=2)
        path = tmp_path / "m3.mat"
        path.write_text(serialize_matrix(sample(cfg, 0)))
        assert run_cli("analyze", "--matrix", str(path)) == 0
        out = capsys.readouterr().out
        assert "gfp p=3" in out

    def test_gfp_fixture_output_pinned(self, tmp_path, capsys):
        cfg = ModelConfig(n=20, p=3, gft_model=1, master_seed=2)
        path = tmp_path / "m3.mat"
        path.write_text(serialize_matrix(sample(cfg, 4)))
        out = tmp_path / "rep.json"
        assert run_cli("analyze", "--matrix", str(path), "--out", str(out)) == 0
        assert capsys.readouterr().out == ("gfp p=3 n_rows=20 n_cols=20\n"
                                           "rank=18 corank=2\n"
                                           f"wrote {out}\n")
        assert out.read_text() == '{\n "p": 3,\n "rank": 18,\n "corank": 2\n}'

    def test_guard_below_corank_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(analyzer, "GUARD", 0)
        assert run_cli("analyze", "--n", "60", "--trial", "0") == 2
        assert "exceeds guard 0" in capsys.readouterr().err

    def test_tall_fixture_refused_before_elimination(self, tmp_path, capsys):
        # one entry in 64000 rows: the co-rank is at least 63999
        path = tmp_path / "tall.mat"
        path.write_text("gf2 64000 1\n0:1\n")
        t0 = time.perf_counter()
        assert run_cli("analyze", "--matrix", str(path)) == 2
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == (
            "error: null-space dimension at least 63999 exceeds guard 20\n")

    def test_fixture_above_guard_refused_after_elimination(self, tmp_path, capsys):
        # 25 rows, 5 equal columns set in rows 0 and 1: rank 1, co-rank 24,
        # which the 25 - 5 = 20 bound before elimination does not see
        path = tmp_path / "wide.mat"
        path.write_text("gf2 25 5\n" + "0:1 1:1\n" * 5)
        assert run_cli("analyze", "--matrix", str(path)) == 2
        assert capsys.readouterr().err == (
            "error: null-space dimension 24 exceeds guard 20\n")

    def test_requires_input(self, capsys):
        assert run_cli("analyze") == 2


class TestAuditCommand:
    def test_r1s2_passes(self, capsys):
        assert run_cli("audit", "--family", "r1s2", "--n", "60",
                       "--trials", "40") == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("family, n_min", [
        ("r1s2", 2), ("r2s2", 2), ("r2s3", 3), ("gf3model1", 3)])
    def test_smallest_n(self, family, n_min, capsys):
        assert run_cli("audit", "--family", family, "--n", str(n_min - 1),
                       "--trials", "1") == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error: audit family {family} at n={n_min - 1}" in err
        assert run_cli("audit", "--family", family, "--n", str(n_min),
                       "--trials", "1") in (0, 1)
        assert f"{family}: n={n_min} trials=1" in capsys.readouterr().out

    def test_gf3model1_fails_fraction_threshold(self, capsys):
        # corank=1 fraction sits near 0.77, below the 0.99 audit threshold
        assert run_cli("audit", "--family", "gf3model1", "--n", "60",
                       "--trials", "40") == 1
        assert "FAIL" in capsys.readouterr().out


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["frobnicate", "sweep"])
    def test_unknown_command_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as e:
            run_cli(command)
        assert e.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as e:
            run_cli("theory", "--no-such-flag")
        assert e.value.code == 2

    # fixed ids, so that a case keeps its id when another is removed
    @pytest.mark.parametrize("argv, flag", [
        pytest.param(("audit", "--trials", "0"), "--trials", id="argv0---trials"),
        pytest.param(("simulate", "--trials", "0"), "--trials", id="argv1---trials"),
        pytest.param(("audit", "--n", "0"), "--n", id="argv4---n"),
        pytest.param(("simulate", "--n", "0"), "--n", id="argv5---n"),
        pytest.param(("analyze", "--n", "x", "--trial", "0"), "--n", id="argv6---n"),
        pytest.param(("audit", "--trials", "1.5"), "--trials", id="argv8---trials"),
        pytest.param(("analyze", "--matrix", "fx.mat", "--trial", "3", "--n", "60", "--p", "3",
                      "--gft-model", "1"), "--matrix", id="argv10---matrix"),
        pytest.param(("analyze", "--trial", "3", "--matrix", "fx.mat"), "--trial",
                     id="argv11---trial"),
        pytest.param(("simulate", "--workers", "0"), "--workers", id="argv12---workers"),
        pytest.param(("audit", "--workers", "-2"), "--workers", id="argv13---workers"),
        pytest.param(("simulate", "--seed", "-1"), "--seed", id="argv15---seed"),
        pytest.param(("analyze", "--seed", "-1"), "--seed", id="argv16---seed"),
        pytest.param(("audit", "--seed", "-1"), "--seed", id="argv17---seed"),
        pytest.param(("analyze", "--trial", "-1"), "--trial", id="argv19---trial"),
        pytest.param(("theory", "--replacement", "sometimes"), "--replacement",
                     id="argv20---replacement"),
    ])
    def test_out_of_range_value_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as e:
            run_cli(*argv)
        assert e.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--omega"), ("simulate", "--window-a"), ("simulate", "--dmax"),
        ("analyze", "--omega"), ("analyze", "--window-a"), ("theory", "--dmax"),
        ("theory", "--format"), ("simulate", "--format"), ("simulate", "--guard"),
        ("analyze", "--guard"), ("theory", "--gamma"), ("theory", "--tol")])
    def test_removed_flag_is_refused(self, command, flag, capsys):
        # omega, a, the enumeration guard, the theory grid and its
        # tolerance are fixed, JSON is the one output format, and theory
        # has no GF(t) rate; no flag sets them
        sizes = {"simulate": ("--n", "20", "--trials", "1"),
                 "analyze": ("--n", "20", "--trial", "0"), "theory": ()}
        with pytest.raises(SystemExit) as e:
            run_cli(command, *sizes[command], flag, "4")
        assert e.value.code == 2
        assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("theory", "--out"),
        ("simulate", "--n", "20", "--trials", "1", "--records"),
        ("simulate", "--n", "20", "--trials", "1", "--out"),
        ("analyze", "--n", "20", "--trial", "0", "--out"),
    ], ids=["theory", "simulate-records", "simulate-out", "analyze"])
    def test_unwritable_output_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        def no_campaign(*args, **kwargs):
            raise AssertionError("ran the campaign before checking the output path")

        monkeypatch.setattr(cli, "run_campaign", no_campaign)
        path = tmp_path / "missing" / "out.json"
        assert run_cli(*argv, str(path)) == 2
        assert f"error: {path}: No such file or directory" in capsys.readouterr().err
        assert not path.parent.exists()

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_records_and_out_same_file_exits_2(self, link, tmp_path, monkeypatch, capsys):
        # the summary would overwrite the records
        def no_campaign(*args, **kwargs):
            raise AssertionError("ran the campaign before checking the outputs")

        monkeypatch.setattr(cli, "run_campaign", no_campaign)
        records = tmp_path / "run.jsonl"
        out = records
        if link:
            out = tmp_path / "summary.json"
            records.touch()
            out.symlink_to(records)
        assert run_cli("simulate", "--n", "50", "--trials", "5",
                       "--records", str(records), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --records and --out name the same file: {out}" in captured.err

    @pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
    def test_same_file_refusal_leaves_outputs_as_found(self, existed, tmp_path,
                                                        monkeypatch, capsys):
        def no_campaign(*args, **kwargs):
            raise AssertionError("ran the campaign before checking the outputs")

        monkeypatch.setattr(cli, "run_campaign", no_campaign)
        path = tmp_path / "P"
        if existed:
            path.write_bytes(b"kept\n")
        assert run_cli("simulate", "--n", "50", "--trials", "5",
                       "--records", str(path), "--out", str(path)) == 2
        assert "name the same file" in capsys.readouterr().err
        if existed:
            assert path.read_bytes() == b"kept\n"
        assert sorted(tmp_path.iterdir()) == ([path] if existed else [])

    def test_failed_campaign_leaves_no_new_output(self, tmp_path, monkeypatch):
        def failing_campaign(*args, **kwargs):
            raise RuntimeError("campaign failed")

        monkeypatch.setattr(cli, "run_campaign", failing_campaign)
        records, out = tmp_path / "records.jsonl", tmp_path / "summary.json"
        out.write_bytes(b"kept\n")
        with pytest.raises(RuntimeError, match="campaign failed"):
            run_cli("simulate", "--n", "50", "--trials", "5",
                    "--records", str(records), "--out", str(out))
        assert not records.exists()
        assert out.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("argv", [("simulate", "--n", "2", "--trials", "5"),
                                      ("analyze", "--n", "2", "--trial", "0")],
                             ids=["simulate", "analyze"])
    def test_model_error_exits_2(self, argv, monkeypatch, capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before rejecting the model")

        monkeypatch.setattr(cli, "run_campaign", no_sampling)
        monkeypatch.setattr(cli, "sample", no_sampling)
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: without replacement requires" in err

    @pytest.mark.parametrize("command", [("simulate", "--trials", "2"),
                                         ("analyze", "--trial", "0")])
    def test_modulus_above_int64_exits_2(self, command, capsys):
        # prime, but its residues do not fit int64
        assert run_cli(*command, "--n", "20", "--p", "9223372036854775837",
                       "--gft-model", "1") == 2
        assert "residues must fit int64" in capsys.readouterr().err

    def test_nan_f_dist_exits_2(self, capsys):
        assert run_cli("simulate", "--n", "20", "--p", "3", "--gft-model", "2",
                       "--f-dist", "nan,nan", "--trials", "2") == 2
        assert "f_dist entries must be nonnegative" in capsys.readouterr().err



def _headline_script():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "scripts", "reproduce_headline.py")
    spec = importlib.util.spec_from_file_location("reproduce_headline", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestHeadlineScript:
    SIZE = ("--n", "60", "--trials", "200", "--seed", "7", "--workers", "2")

    def test_writes_what_simulate_writes(self, tmp_path, capsys):
        out_dir = tmp_path / "headline"
        # at this size the TV checks fail, so the headline step fails
        assert _headline_script().main([*self.SIZE, "--out-dir", str(out_dir)]) == 1
        assert "check tv_corank: FAIL" in capsys.readouterr().out
        records, summary = tmp_path / "records.jsonl", tmp_path / "summary.json"
        assert run_cli("simulate", *self.SIZE, "--records", str(records),
                       "--out", str(summary)) == 0
        assert (out_dir / "records.jsonl").read_bytes() == records.read_bytes()

        def without_wall(path):
            return [line for line in path.read_text().splitlines() if '"wall_s"' not in line]

        assert without_wall(out_dir / "summary.json") == without_wall(summary)

    def test_gf3model1_failure_alone_exits_0(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_simulate", lambda args: 0)
        argv = [*self.SIZE, "--out-dir", str(tmp_path)]
        assert _headline_script().main(argv) == 0
        fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
        assert len(fails) == 1 and fails[0].startswith("gf3model1: n=60 trials=1000 ")

    @pytest.mark.parametrize("family, code", [("r2s3", 1), ("gf3model1", 2)])
    def test_other_audit_failures_exit_1(self, family, code, tmp_path, monkeypatch):
        # any other family's failure counts, and so does a gf3model1 usage error
        monkeypatch.setattr(cli, "cmd_simulate", lambda args: 0)
        monkeypatch.setattr(cli, "cmd_audit", lambda args: code if args.family == family else 0)
        assert _headline_script().main([*self.SIZE, "--out-dir", str(tmp_path)]) == 1


def _readme_cli_section() -> str:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as f:
        return f.read().split("## CLI", 1)[1]


def _readme_commands() -> list[str]:
    """The fflab commands of the README's CLI block, one string each, with
    backslash continuations joined and # comments stripped."""
    block = _readme_cli_section().split("```")[1]
    lines = (line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("fflab ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
    # every subcommand is shown, and the exit-code paragraph names only
    # options that some subcommand has
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == {shlex.split(command)[1] for command in commands}
    options = {flag for p in subparsers.values() for a in p._actions for flag in a.option_strings}
    paragraph = _readme_cli_section().split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    flags = {flag for span in re.findall(r"`([^`]*)`", paragraph)
             for flag in re.findall(r"--[\w-]+", span)}
    assert flags and flags <= options, sorted(flags - options)


def test_cold_start_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(fflab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, fflab, fflab.harness, fflab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_exports_resolve_once():
    assert len(set(fflab.__all__)) == len(fflab.__all__)
    for name in fflab.__all__:
        assert hasattr(fflab, name), name
    # __all__ lists exactly what __init__ imports, and the version
    tree = ast.parse(Path(fflab.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert set(fflab.__all__) == imported | {"__version__"}
