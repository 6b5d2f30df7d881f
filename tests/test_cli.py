"""Command-line surface: exit codes, CSV contracts, seeding, and errors."""

import argparse
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsf
from hsf import Diagnostics, JuntaCase, Verdict, cli, extract_junta, load_ltf_file, save_ltf_file

JUNTA_HEADER = (
    "case,junta_size,L,ell,ns,premise_bound,premise_holds,distance,guarantee,verdict"
)
SWEEP_HEADER = (
    "family,rate,instance,n,theta,epsilon,delta,case,junta_size,L,ell,ns,"
    "premise_bound,premise_holds,distance,guarantee,verdict"
)


def _dictator_file(tmp_path):
    path = tmp_path / "dominant.json"
    save_ltf_file(path, [10.0, 1.0, 1.0, 1.0], 0.0)
    return str(path)


def _biased_majority_file(tmp_path):
    path = tmp_path / "biased.json"
    save_ltf_file(path, list(np.ones(16)), 8.0)
    return str(path)


def _ltf_argv(command, weights=(10.0, 1.0, 1.0, 1.0), theta=0.0):
    def build(tmp_path):
        path = tmp_path / "instance.json"
        save_ltf_file(path, list(weights), theta)
        argv = [command, "--ltf", str(path), "--quiet"]
        return argv + ["--epsilon", "0.1", "--delta", "0.1"] if command == "junta" else argv
    return build


def _raw_ltf_argv(command, document: bytes):
    def build(tmp_path):
        argv = _ltf_argv(command)(tmp_path)
        (tmp_path / "instance.json").write_bytes(document)
        return argv
    return build


_HUGE_INT = b"9" * 400

# Valid invocations, per subcommand, that the bad inputs below extend.
_VALID_ARGV = {
    "analyze": _ltf_argv("analyze"),
    "junta": _ltf_argv("junta"),
    "sweep": lambda tmp_path: ["sweep", "--families", "equal", "--n", "4", "--count", "1",
                               "--quiet"],
    "gaussian": lambda tmp_path: ["gaussian", "--samples", "1000", "--quiet"],
    "checks": lambda tmp_path: ["checks", "--samples", "1000", "--quiet"],
}

_BAD_INPUTS = [
    *(pytest.param(build, ["--seed", "-1"], "--seed must be nonnegative",
                   id=f"{command}-seed") for command, build in _VALID_ARGV.items()),
    pytest.param(_VALID_ARGV["junta"], ["--epsilon", "1e-200"],
                 "budget L is not finite", id="junta-tiny-epsilon"),
    pytest.param(_VALID_ARGV["junta"], ["--c-l", "1e308"],
                 "budget L is not finite", id="junta-huge-c-l"),
    pytest.param(_VALID_ARGV["sweep"], ["--epsilons", "1e-200"],
                 "budget L is not finite", id="sweep-tiny-epsilon"),
    pytest.param(_VALID_ARGV["sweep"], ["--c-l", "1e308"],
                 "budget L is not finite", id="sweep-huge-c-l"),
    pytest.param(_VALID_ARGV["sweep"], ["--n", str(10**15), "--max-n", "20"],
                 "exceeds cap 20", id="sweep-n-past-cap"),
    pytest.param(_VALID_ARGV["sweep"], ["--epsilons", ","],
                 "--epsilons must name at least one value", id="sweep-no-epsilons"),
    pytest.param(_VALID_ARGV["sweep"], ["--families", ","],
                 "--families must name at least one family", id="sweep-no-families"),
    # A sweep that would draw nothing still refuses what its cells would refuse.
    *(pytest.param(_VALID_ARGV["sweep"], extra + ["--count", "0"], message,
                   id=f"sweep-no-cells-{name}")
      for name, extra, message in [
          ("family", ["--families", "bogus"], "unknown family 'bogus'"),
          ("old-alias", ["--families", "gaussian-weights"], "unknown family 'gaussian-weights'"),
          ("rate", ["--families", "geometric:1.5"], "rate must be in (0, 1), got 1.5"),
          ("no-rate", ["--families", "geometric"], "family 'geometric' needs a rate"),
          ("rate-not-real", ["--families", "geometric:x"], "rate must convert to a float"),
          ("rate-not-taken", ["--families", "equal:0.5"], "family 'equal' takes no rate"),
          ("theta-law", ["--theta-law", "bogus"], "unknown theta law 'bogus'"),
          ("n", ["--n", "0"], "n must be in [1, inf], got 0"),
          ("epsilon", ["--epsilons", "0.7"], "epsilon must be in (0, 0.5], got 0.7"),
          ("c-ns", ["--c-ns", "nan"], "c_ns must be in (0, inf), got nan"),
          ("c-l", ["--c-l", "inf"], "c_l must be in (0, inf), got inf"),
      ]),
    pytest.param(_VALID_ARGV["analyze"], ["--taus", "x"],
                 "--taus expects comma-separated reals, got 'x'", id="analyze-taus-not-real"),
    pytest.param(_VALID_ARGV["analyze"], ["--taus", "2"],
                 "tau must be in (0, 1], got 2.0", id="analyze-tau-past-one"),
    pytest.param(_VALID_ARGV["analyze"], ["--epsilons", "1.5"],
                 "epsilon must be in [0, 1], got 1.5", id="analyze-epsilon-past-one"),
    pytest.param(_VALID_ARGV["checks"], ["--samples", "0"],
                 "samples must be in [1, ", id="checks-no-samples"),
    pytest.param(_VALID_ARGV["checks"], ["--max-n", "10"],
                 "arity 16 exceeds cap 10", id="checks-max-n-below-cdf-gap-arity"),
    pytest.param(_ltf_argv("junta", weights=(1e-300, 1e-300), theta=1e300), [],
                 "canonical theta overflows", id="junta-theta-overflow"),
    *(pytest.param(_raw_ltf_argv(command, document), [], message, id=f"{command}-{name}")
      for command in ("analyze", "junta")
      for name, document, message in [
          ("huge-int-weight", b'{"weights": [1, ' + _HUGE_INT + b'], "theta": 0}',
           "outside the float64 range"),
          ("huge-int-theta", b'{"weights": [1, 2], "theta": ' + _HUGE_INT + b"}",
           "outside the float64 range"),
          ("non-ascii", '{"weights": [1, 2], "theta": 0, "note": "\u00e9"}'.encode("utf-8"),
           "not a well-formed ASCII document"),
          ("deep-nesting", b'{"weights": ' + b"[" * 100_000 + b"]" * 100_000 + b', "theta": 0}',
           "maximum recursion depth exceeded"),
          ("int-past-digit-limit", b'{"weights": [1, ' + b"9" * 5000 + b'], "theta": 0}',
           "for integer string conversion"),
      ]),
]


class TestBadInputs:
    @pytest.mark.parametrize("build,extra,message", _BAD_INPUTS)
    def test_exits_two_with_one_error_line(self, tmp_path, capsys, build, extra, message):
        assert cli.main(build(tmp_path) + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    # The check blocks of `checks`, each named by its first call.
    _CHECK_BLOCKS = ["random_function", "constant_bound_check", "restriction_energy_identity",
                     "ns_aggregation_check", "regular_cdf_gap", "boolean_pair_quadrant_mc",
                     "tail_ratio", "gaussian_ns_mc"]

    @pytest.mark.parametrize("command, extra, work", [
        pytest.param("analyze", ["--taus", "x"], ["prepare"], id="analyze-taus-not-real"),
        pytest.param("analyze", ["--taus", "2"], ["prepare"], id="analyze-tau-past-one"),
        pytest.param("analyze", ["--epsilons", "1.5"], ["prepare"],
                     id="analyze-epsilon-past-one"),
        pytest.param("junta", ["--c-ns", "nan"], ["prepare"], id="junta-c-ns-not-finite"),
        pytest.param("sweep", ["--c-ns", "nan"], ["prepare"], id="sweep-c-ns-not-finite"),
        pytest.param("gaussian", ["--epsilon", "0.05,0.7"], ["gaussian_ns_mc"],
                     id="gaussian-late-epsilon-past-half"),
        pytest.param("checks", ["--samples", "0"], _CHECK_BLOCKS, id="checks-no-samples"),
        pytest.param("checks", ["--max-n", "10"], _CHECK_BLOCKS,
                     id="checks-max-n-below-cdf-gap-arity"),
    ])
    def test_refused_before_any_table_or_check_block(self, tmp_path, monkeypatch,
                                                     command, extra, work):
        ran = []
        for name in work:
            def spy(*args, name=name, real=getattr(cli, name), **kwargs):
                ran.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        assert cli.main(_VALID_ARGV[command](tmp_path) + extra) == 2
        assert ran == []


class TestAnalyze:
    def test_csv_sections_and_trailer(self, tmp_path):
        out = tmp_path / "report.csv"
        code = cli.main(
            ["analyze", "--ltf", _dictator_file(tmp_path), "--quiet",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "section,key,value"
        assert lines[-1] == f"# seed=0 version={hsf.__version__}"
        sections = {line.split(",")[0] for line in lines[1:-1]}
        assert sections >= {
            "meta", "weight", "origin", "sigma", "critical_index", "ns",
            "degree_weight", "bias",
        }
        assert "meta,n_active,4" in lines

    def test_human_report_on_stdout(self, tmp_path, capsys):
        # One "section: key=value ..." line per CSV section, in CSV order.
        assert cli.main(["analyze", "--ltf", _dictator_file(tmp_path)]) == 0
        report, csv_text = capsys.readouterr().out.split("\n\n")
        rows = [line.split(",") for line in csv_text.splitlines()[1:-1]]
        assert csv_text.startswith("section,key,value\n")
        sections = list(dict.fromkeys(row[0] for row in rows))
        lines = report.splitlines()
        assert [line.split(": ")[0] for line in lines] == sections
        for line, section in zip(lines, sections):
            pairs = line.split(": ")[1].split(" ")
            assert all("=" in pair for pair in pairs)
            assert len(pairs) == sum(row[0] == section for row in rows)

    def test_quiet_without_out_prints_nothing(self, tmp_path, capsys):
        assert cli.main(
            ["analyze", "--ltf", _dictator_file(tmp_path), "--quiet"]
        ) == 0
        assert capsys.readouterr().out == ""


class TestJunta:
    def test_vacuous_pass_with_exact_junta(self, tmp_path, capsys):
        path = _dictator_file(tmp_path)
        code = cli.main(
            ["junta", "--ltf", path, "--epsilon", "0.05", "--delta", "0.25"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "case: III_HeadJunta" in text
        assert "verdict: premise-violated" in text
        lines = [line for line in text.splitlines() if line.startswith("III_")]
        row = lines[0].split(",")
        assert row[0] == "III_HeadJunta"
        assert row[7] == "0"  # exact distance: the junta is the function

    def test_human_report_is_the_row_plus_the_audit_fields(self, tmp_path, capsys):
        path = _dictator_file(tmp_path)
        assert cli.main(["junta", "--ltf", path, "--epsilon", "0.05", "--delta", "0.25"]) == 0
        report, csv_text = capsys.readouterr().out.split("\n\n")
        lines = dict(line.partition(": ")[::2] for line in report.splitlines())
        columns = JUNTA_HEADER.split(",")
        # The Diagnostics fields the row carries, under their column names.
        carried = {"budget", "critical_idx", "ns_value", "premise_bound", "premise_holds",
                   "guarantee_bound"}
        audit = [f.name for f in dataclasses.fields(Diagnostics) if f.name not in carried]
        assert [line.partition(": ")[0] for line in report.splitlines()] == (
            columns + ["junta_coordinates"] + audit)  # each label once
        assert {"iia_bound", "small_delta"} <= set(audit)
        assert lines["case"] == "III_HeadJunta" and lines["verdict"] == "premise-violated"
        d = extract_junta(load_ltf_file(path), 0.05, 0.25).diagnostics
        expected = dict(zip(columns, csv_text.splitlines()[1].split(",")))
        expected |= {name: cli._fmt(getattr(d, name)) for name in audit}
        expected["junta_coordinates"] = "0 1 2 3"
        for label, text in lines.items():  # reals to 6 digits, other cells as in the CSV
            try:
                assert float(text) == pytest.approx(float(expected[label]), rel=1e-5,
                                                    nan_ok=True)
            except ValueError:
                assert text == expected[label]

    def test_quiet_without_out_prints_nothing(self, tmp_path, capsys):
        assert cli.main(["junta", "--ltf", _dictator_file(tmp_path), "--epsilon", "0.05",
                         "--delta", "0.25", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_non_vacuous_row_matches_library(self, tmp_path):
        path = _biased_majority_file(tmp_path)
        out = tmp_path / "row.csv"
        code = cli.main(
            ["junta", "--ltf", path, "--epsilon", "0.25", "--delta", "0.62",
             "--quiet", "--out", str(out)]
        )
        assert code == 0
        header, row, trailer = out.read_text().splitlines()
        assert header == JUNTA_HEADER
        fields = row.split(",")
        report = extract_junta(load_ltf_file(path), 0.25, 0.62)
        assert fields[0] == "I_Constant"
        assert fields[1] == "0"
        assert fields[2] == "11"
        assert fields[3] == "1"
        assert float(fields[7]) == report.distance
        assert fields[6] == "true" and fields[9] == "pass"
        assert trailer.startswith("# seed=")

    def test_arity_cap_is_max_n(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        save_ltf_file(path, list(np.ones(21)), 0.0)
        argv = ["junta", "--ltf", str(path), "--epsilon", "0.1", "--delta", "0.1", "--quiet"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: arity 21 exceeds cap 20\n"
        assert cli.main(argv + ["--max-n", "21"]) == 0

    def test_failing_verdict_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "theorem_verify",
            lambda report: Verdict(passed=False, vacuous=False, label="fail"),
        )
        code = cli.main(
            ["junta", "--ltf", _dictator_file(tmp_path), "--epsilon", "0.05",
             "--delta", "0.25", "--quiet"]
        )
        assert code == 1


    @pytest.mark.parametrize("flag,value", [
        ("--c-l", "inf"), ("--c-l", "nan"), ("--c-ns", "nan"), ("--c-ns", "inf"),
    ])
    def test_non_finite_constants_are_input_errors(self, tmp_path, capsys, flag, value):
        code = cli.main(
            ["junta", "--ltf", _dictator_file(tmp_path), "--epsilon", "0.05",
             "--delta", "0.25", flag, value]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {flag[2:].replace('-', '_')} must be in (0, inf)")
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestSweep:
    ARGS = ["sweep", "--families", "equal,geometric:0.5", "--n", "6",
            "--count", "2", "--seed", "9", "--quiet"]

    def test_shape_and_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(self.ARGS + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert lines[-1] == f"# seed=9 version={hsf.__version__}"
        rows = [line.split(",") for line in lines[1:-1]]
        assert len(rows) == 2 * 2 * 3 * 3
        assert {row[0] for row in rows} == {"equal", "geometric"}
        geometric = next(row for row in rows if row[0] == "geometric")
        equal = next(row for row in rows if row[0] == "equal")
        assert geometric[1] == "0.5" and equal[1] == ""
        assert equal[10] == "inf"  # equal weights at n=6 are never tau-regular

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(self.ARGS + ["--out", str(a)])
        cli.main(self.ARGS + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_thetas(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(self.ARGS + ["--out", str(a)])
        args = [arg if arg != "9" else "10" for arg in self.ARGS]
        cli.main(args + ["--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_family_validation(self, tmp_path, capsys):
        assert cli.main(
            ["sweep", "--families", "geometric", "--n", "4", "--count", "1"]
        ) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert cli.main(
            ["sweep", "--families", "equal:0.5", "--n", "4", "--count", "1"]
        ) == 2

    def test_arity_beyond_cap_draws_nothing(self, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew an instance past the arity cap")

        monkeypatch.setattr(cli, "random_ltf", no_draw)
        code = cli.main(
            ["sweep", "--families", "equal", "--n", str(10**15), "--count", "1",
             "--max-n", "20", "--quiet"]
        )
        assert code == 2
        assert f"arity {10**15} exceeds cap 20" in capsys.readouterr().err

    def test_arity_cap_respected(self, capsys):
        code = cli.main(
            ["sweep", "--families", "equal", "--n", "22", "--count", "1",
             "--quiet"]
        )
        assert code == 2
        assert "exceeds cap" in capsys.readouterr().err

    def test_per_function_values_once_per_instance_and_epsilon(self, monkeypatch):
        # ns and the critical index depend on the function and eps only, so a
        # sweep computes each once per (instance, eps), not once per cell.
        calls = {"ns_exact": [], "critical_index": []}
        for name, calls_of in calls.items():
            def counting(source, eps, real=getattr(hsf.junta, name), calls_of=calls_of):
                calls_of.append(eps)
                return real(source, eps)
            monkeypatch.setattr(hsf.junta, name, counting)
        assert cli.main(
            ["sweep", "--families", "equal,gaussian", "--n", "6", "--count", "3",
             "--epsilons", "0.05,0.1,0.25", "--deltas", "0.05,0.1,0.2", "--quiet"]
        ) == 0
        for calls_of in calls.values():
            assert sorted(calls_of) == [0.05] * 6 + [0.1] * 6 + [0.25] * 6

    def test_golden_sweep_reuses_its_heap_pages(self, tmp_path):
        # Each instance reuses the pages the one before it freed: a fresh
        # golden sweep faults about 6k pages.  With the heap top trimmed after
        # instances it faulted 9k to 128k, depending on the checkout's path.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hsf.cli", "sweep", "--families",
             "equal,gaussian,geometric:0.97", "--n", "16", "--count", "168",
             "--theta-law", "gaussian:2", "--quiet", "--out", str(tmp_path / "sweep.csv")],
            env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        assert usage.ru_minflt < 20_000


class TestGaussianAndChecks:
    def test_gaussian_grid(self, tmp_path):
        out = tmp_path / "gaussian.csv"
        code = cli.main(
            ["gaussian", "--theta", "0,1", "--epsilon", "0.5",
             "--samples", "20000", "--seed", "3", "--quiet", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,rho,bound,mc_value,mc_radius,holds"
        rows = [line.split(",") for line in lines[1:-1]]
        assert len(rows) == 2
        assert rows[0][2] == "0.5"  # arccos(0)/pi at theta = 0
        assert all(row[5] == "true" for row in rows)

    def test_gaussian_bad_grid(self, capsys):
        assert cli.main(["gaussian", "--theta", "a,b", "--quiet"]) == 2
        assert "reals" in capsys.readouterr().err

    def test_checks_suites(self, tmp_path):
        out = tmp_path / "checks.csv"
        code = cli.main(
            ["checks", "--samples", "20000", "--seed", "7", "--quiet",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check,instance_seed,lhs,rhs,gap,holds"
        rows = [line.split(",") for line in lines[1:-1]]
        assert {row[0] for row in rows} == {
            "constant-lower-bound", "restriction-energy", "ns-aggregation",
            "cdf-gap", "quadrant-gap", "tail-ratio", "gaussian-lower-bound",
        }
        assert len(rows) == 49
        assert all(row[5] == "true" for row in rows)


class TestSeedAndUsage:
    def test_env_seed_changes_no_byte(self, tmp_path, monkeypatch):
        def csv(argv):
            out = tmp_path / "out.csv"
            assert cli.main(argv + ["--quiet", "--out", str(out)]) == 0
            return out.read_bytes()

        for argv in (["gaussian", "--theta", "0", "--epsilon", "0.5", "--samples", "1000"],
                     ["sweep", "--families", "equal,gaussian", "--n", "6", "--count", "2"]):
            monkeypatch.delenv("HSF_SEED", raising=False)
            unset = csv(argv)
            monkeypatch.setenv("HSF_SEED", "77")
            assert csv(argv) == unset
            assert unset.decode().splitlines()[-1].startswith("# seed=0 ")

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HSF_SEED", "77")
        out = tmp_path / "g.csv"
        cli.main(["gaussian", "--theta", "0", "--epsilon", "0.5",
                  "--samples", "1000", "--seed", "5", "--quiet",
                  "--out", str(out)])
        assert "# seed=5" in out.read_text()

    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert hsf.__version__ in capsys.readouterr().out

    def test_every_option_has_help_and_shows_its_default(self):
        # An option with a default other than None or False names it in its help.
        (commands,) = [action for action in cli._build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert sorted(commands.choices) == ["analyze", "checks", "gaussian", "junta", "sweep"]
        bare, silent = [], []
        for name, sub in commands.choices.items():
            for action in sub._actions:
                flag = f"{name} {action.option_strings[-1]}"
                if not action.help:
                    bare.append(flag)
                elif (action.default not in (None, False, argparse.SUPPRESS)
                      and "%(default)s" not in action.help):
                    silent.append(flag)
        assert bare == [] and silent == []

    def test_usage_errors(self, tmp_path):
        assert cli.main([]) == 2
        assert cli.main(["frobnicate"]) == 2
        assert cli.main(["junta", "--ltf", _dictator_file(tmp_path)]) == 2

    def test_missing_input_file(self, tmp_path, capsys):
        code = cli.main(["analyze", "--ltf", str(tmp_path / "absent.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("max_n", ["0", "25"])
    def test_max_n_range(self, tmp_path, max_n, capsys):
        code = cli.main(
            ["analyze", "--ltf", _dictator_file(tmp_path), "--max-n", max_n,
             "--quiet"]
        )
        assert code == 2
        assert "--max-n" in capsys.readouterr().err

    def test_installed_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "hsf.cli", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert hsf.__version__ in result.stdout


class TestFormat:
    FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
              2.2250738585072014e-308, 0.1, 1 / 3, -1e300, 1.7976931348623157e308, 12.0]

    @pytest.mark.parametrize("value", FLOATS)
    def test_float_cells_have_seventeen_digits(self, value):
        for cell in (value, np.float64(value)):
            assert cli._fmt(cell) == f"{float(cell):.17g}"

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_any_float_as_float_or_float64(self, value):
        assert cli._fmt(value) == cli._fmt(np.float64(value)) == f"{value:.17g}"

    @pytest.mark.parametrize("cell, text", [
        (True, "true"), (False, "false"), (np.bool_(True), "true"), (0, "0"),
        (-7, "-7"), (np.int64(2**40), "1099511627776"), (np.uint8(255), "255"),
        (None, ""), (JuntaCase.PROJECTION, "IIb_Projection"), ("a,b", '"a,b"'),
    ])
    def test_other_cells_are_unchanged(self, cell, text):
        assert cli._fmt(cell) == text
