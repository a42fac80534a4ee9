"""End-to-end command tests driven through main() in process."""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import softtilt
import softtilt.identify as identify_module
from softtilt import fixture_path, joint_f3, pmi
from softtilt.cli import main
from helpers import joint_to_doc, overflow_joint, sparse_joint
from test_golden import GOLDEN

F1 = str(fixture_path("f1.json"))
F3 = str(fixture_path("f3.json"))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def identified(tmp_path, capsys):
    """Calibrated artifacts for f3 in both directions."""
    fwd = tmp_path / "fwd"
    swp = tmp_path / "swp"
    assert main(["identify", F3, "--out", str(fwd)]) == 0
    assert main(["identify", F3, "--direction", "z_given_yx", "--out", str(swp)]) == 0
    capsys.readouterr()
    return {
        "fwd_rewards": str(fwd) + ".rewards.json",
        "fwd_interaction": str(fwd) + ".interaction.json",
        "fwd_report": str(fwd) + ".report.json",
        "swp_rewards": str(swp) + ".rewards.json",
    }


class TestIndexCoordinates:
    """Every joint subcommand on passing inputs computes on `_Split` indices alone: it
    builds no `Assignment` grid or index on the direction's split (compare
    `test_identify.TestTerminalLookup.test_default_only_values_build_no_events`)."""

    LAZY = ("contexts", "outcomes", "events", "ctx_index", "outcome_index")

    RUNS = {
        "identify": ["identify", F3, "--out", "{out}"],
        "solve": ["solve", F3],
        "solve-rewards": ["solve", F3, "--rewards", "{fwd_rewards}"],
        "construct": ["construct", F3, "--interaction", "{fwd_interaction}"],
        "gauge": ["check", F3, "--rewards", "{fwd_rewards}", "--checks", "gauge"],
        "admissibility": ["check", F3, "--rewards", "{fwd_rewards}", "--checks", "admissibility"],
        "admissibility-interaction": ["check", F3, "--rewards", "{fwd_rewards}", "--checks",
                                      "admissibility", "--interaction", "{fwd_interaction}"],
        "decomposition": ["check", F3, "--rewards", "{fwd_rewards}", "--checks", "decomposition"],
        "commute": ["check", F3, "--rewards", "{fwd_rewards}", "--checks", "commute",
                    "--rewards-swapped", "{swp_rewards}"],
    }

    @pytest.mark.parametrize("argv", RUNS.values(), ids=RUNS.keys())
    def test_no_grid_is_built(self, capsys, identified, tmp_path, monkeypatch, argv):
        made = []

        class Recording(identify_module._Split):
            def __init__(self, joint, direction):
                super().__init__(joint, direction)
                made.append(self)

        monkeypatch.setattr(identify_module, "_Split", Recording)
        paths = {**identified, "out": str(tmp_path / "run")}
        code, _, err = run(capsys, [a.format(**paths) for a in argv])
        assert (code, err) == (0, "")
        assert made
        for split in made:
            assert [name for name in self.LAZY if name in vars(split)] == []


class TestSolve:
    def test_f1_default_is_uniform(self, capsys):
        doc = run_json(capsys, ["solve", F1])
        assert doc["direction"] == "x_given_yz"
        assert doc["alpha"] == 1
        assert len(doc["entries"]) == 4
        for entry in doc["entries"]:
            assert [row["q"] for row in entry["optimizer"]] == [0.5, 0.5]
            assert entry["soft_value"] == 0
        assert doc["skipped"] == []

    def test_calibrated_rewards_reproduce_bayes(self, capsys, identified):
        # P(X=0 | y, z) is 0.8 when z is "0" and 0.2 when z is "1"
        doc = run_json(capsys, ["solve", F3, "--rewards", identified["fwd_rewards"]])
        for entry in doc["entries"]:
            want = 0.8 if entry["context"]["Z"] == "0" else 0.2
            assert entry["optimizer"][0]["q"] == pytest.approx(want, abs=1e-12)
            assert abs(entry["log_normalizer"]) <= 1e-12

    def test_direction_that_agrees_with_the_rewards_is_accepted(self, capsys, identified):
        argv = ["solve", F3, "--rewards", identified["fwd_rewards"]]
        assert run(capsys, argv + ["--direction", "x_given_yz"]) == run(capsys, argv)

    def test_alpha_override_is_reported(self, capsys, identified):
        doc = run_json(
            capsys, ["solve", F3, "--rewards", identified["fwd_rewards"], "--alpha", "2.0"]
        )
        assert doc["alpha"] == 2

    def test_out_flag_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        out = tmp_path / "solve.json"
        code, stdout, _ = run(capsys, ["solve", F1, "--out", str(out)])
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["direction"] == "x_given_yz"

    def test_zero_mass_context_exits_3(self, capsys, tmp_path):
        sparse = write_json(tmp_path / "sparse.json", joint_to_doc(sparse_joint()))
        code, _, err = run(capsys, ["solve", sparse])
        assert code == 3
        assert err.startswith("error:")
        assert "skip-zero-mass" in err

    def test_skip_zero_mass_reports_skips(self, capsys, tmp_path):
        sparse = write_json(tmp_path / "sparse.json", joint_to_doc(sparse_joint()))
        doc = run_json(capsys, ["solve", sparse, "--skip-zero-mass"])
        assert len(doc["entries"]) == 3
        assert doc["skipped"] == [
            {"context": {"Y": "1", "Z": "0"}, "reason": "zero conditioning mass"}
        ]

    def test_identify_rewards_with_excluded_cells_need_fill_zero(self, capsys, tmp_path):
        # identify leaves the posterior-null cell X=1 at (Y=0, Z=0) out of its
        # rewards file; reading that file back is a coverage mismatch
        sparse = write_json(tmp_path / "sparse.json", joint_to_doc(sparse_joint()))
        prefix = tmp_path / "sp"
        assert main(["identify", sparse, "--out", str(prefix)]) == 0
        argv = ["solve", sparse, "--skip-zero-mass", "--rewards", f"{prefix}.rewards.json"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: missing entry for outcome") and err.count("\n") == 1
        assert "--fill-zero" in err
        doc = run_json(capsys, argv + ["--fill-zero"])
        assert len(doc["entries"]) == 3

    def test_malformed_joint_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        code, _, err = run(capsys, ["solve", str(bad)])
        assert code == 2
        assert "line 1" in err

    def test_integer_beyond_double_range_exits_2(self, capsys, tmp_path):
        # a JSON integer literal that float() cannot hold is a schema error,
        # not an OverflowError traceback
        huge = "1" + "0" * 400
        text = json.dumps(joint_to_doc(joint_f3())).replace('"p": 0.2', f'"p": {huge}', 1)
        assert huge in text
        joint = tmp_path / "huge.json"
        joint.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["solve", str(joint)])
        assert (code, out) == (2, "")
        assert err == "error: 'p' at X=0,Y=0,Z=0 must be a finite number\n"


class TestIdentify:
    def test_writes_three_artifacts(self, identified):
        for key in ("fwd_rewards", "fwd_interaction", "fwd_report"):
            with open(identified[key], encoding="utf-8") as fh:
                json.load(fh)

    def test_interaction_matches_library_values(self, identified):
        with open(identified["fwd_interaction"], encoding="utf-8") as fh:
            doc = json.load(fh)
        j = joint_f3()
        for entry in doc["entries"]:
            expected = pmi(
                j,
                {"X": entry["outcome"]["X"]},
                {"Z": entry["context"]["Z"]},
                {"Y": entry["context"]["Y"]},
            )
            assert entry["i"] == expected

    def test_report_lists_exclusions_for_sparse_joint(self, capsys, tmp_path):
        sparse = write_json(tmp_path / "sparse.json", joint_to_doc(sparse_joint()))
        prefix = tmp_path / "sp"
        assert main(["identify", sparse, "--out", str(prefix)]) == 0
        capsys.readouterr()
        with open(str(prefix) + ".report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["excluded"] == [
            {
                "context": {"Y": "0", "Z": "0"},
                "outcome": {"X": "1"},
                "reason": "zero joint mass",
            }
        ]
        assert report["skipped"] == [
            {"context": {"Y": "1", "Z": "0"}, "reason": "zero conditioning mass"}
        ]
        assert report["contexts"] == 3

    def test_ratio_beyond_double_range_exits_0(self, capsys, tmp_path):
        joint = write_json(tmp_path / "overflow.json", joint_to_doc(overflow_joint()))
        prefix = tmp_path / "ov"
        code, _, err = run(capsys, ["identify", joint, "--alpha", "2", "--out", str(prefix)])
        assert code == 0 and err == ""
        with open(str(prefix) + ".interaction.json", encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        (value,) = [
            e["i"] for e in entries
            if e["context"] == {"Y": "0", "Z": "1"} and e["outcome"] == {"X": "1"}
        ]
        assert 700 < value < math.inf


class TestCheck:
    def test_decomposition_with_subnormal_prior_passes(self, capsys, tmp_path):
        # the ROADMAP 4a joint: q / p overflowed in the KL terms at p = 1e-320
        joint = write_json(tmp_path / "overflow.json", joint_to_doc(overflow_joint()))
        prefix = tmp_path / "ov"
        assert main(["identify", joint, "--out", str(prefix)]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, [
            "check", joint, "--rewards", f"{prefix}.rewards.json",
            "--checks", "decomposition", "--fill-zero",
        ])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert doc["checks"][0]["max_residual"] < 1e-10

    def test_calibrated_pair_passes_everything(self, capsys, identified):
        doc = run_json(
            capsys,
            [
                "check",
                F3,
                "--rewards",
                identified["fwd_rewards"],
                "--rewards-swapped",
                identified["swp_rewards"],
            ],
        )
        assert doc["all_passed"] is True
        assert [c["check"] for c in doc["checks"]] == [
            "gauge",
            "admissibility",
            "commute",
            "decomposition",
        ]
        for check in doc["checks"]:
            assert check["passed"] is True

    def test_reports_are_byte_identical(self, capsys, identified, tmp_path):
        argv = [
            "check",
            F3,
            "--rewards",
            identified["fwd_rewards"],
            "--rewards-swapped",
            identified["swp_rewards"],
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_commute_detects_reward_perturbation(self, capsys, identified, tmp_path):
        with open(identified["fwd_rewards"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["entries"][0]["r"] += 1e-2
        bumped = write_json(tmp_path / "bumped.json", doc)
        code, out, _ = run(
            capsys,
            [
                "check",
                F3,
                "--rewards",
                bumped,
                "--rewards-swapped",
                identified["swp_rewards"],
                "--checks",
                "commute",
            ],
        )
        assert code == 1
        report = json.loads(out)
        assert report["all_passed"] is False
        (commute,) = report["checks"]
        assert 1e-4 < commute["max_residual"] < 2e-2

    def test_external_interaction_offset_fails_admissibility(
        self, capsys, identified, tmp_path
    ):
        with open(identified["fwd_interaction"], encoding="utf-8") as fh:
            doc = json.load(fh)
        for entry in doc["entries"]:
            if entry["i"] != "-inf":
                entry["i"] += 0.1
        offset = write_json(tmp_path / "offset.json", doc)
        code, out, _ = run(
            capsys,
            [
                "check",
                F3,
                "--rewards",
                identified["fwd_rewards"],
                "--interaction",
                offset,
                "--checks",
                "admissibility",
            ],
        )
        assert code == 1
        (check,) = json.loads(out)["checks"]
        assert check["max_residual"] == pytest.approx(0.1, abs=1e-12)
        assert check["tolerance"] == 1e-8
        assert check["details"]["source"] == "external file"

    def test_missing_context_exits_4(self, capsys, identified, tmp_path):
        with open(identified["fwd_rewards"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["entries"] = [
            e for e in doc["entries"] if (e["context"]["Y"], e["context"]["Z"]) != ("0", "0")
        ]
        gapped = write_json(tmp_path / "gapped.json", doc)
        code, _, err = run(capsys, ["check", F3, "--rewards", gapped])
        assert code == 4
        assert "positive-mass context" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_must_be_finite_and_nonnegative(self, capsys, identified, tmp_path, tol):
        out = tmp_path / "report.json"
        argv = ["check", F3, "--rewards", identified["fwd_rewards"], "--tol", tol, "--out", str(out)]
        assert run(capsys, argv) == (
            2, "", f"error: --tol must be finite and >= 0, got {float(tol)!r}\n"
        )
        assert not out.exists()

    def test_unknown_check_name_exits_2(self, capsys, identified):
        code, _, err = run(
            capsys,
            ["check", F3, "--rewards", identified["fwd_rewards"], "--checks", "bogus"],
        )
        assert code == 2
        assert "unknown check" in err

    def test_interaction_missing_supported_outcome_exits_4(self, capsys, identified, tmp_path):
        # a coverage mismatch, as construct reports the same file
        with open(identified["fwd_interaction"], encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["entries"][0]
        gapped = write_json(tmp_path / "gapped.json", doc)
        argv = ["check", F3, "--rewards", identified["fwd_rewards"], "--interaction", gapped,
                "--checks", "admissibility"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, "")
        assert err == (
            "error: interaction table misses prior-supported outcome X=0 at context Y=0,Z=0\n"
        )
        assert run(capsys, ["construct", F3, "--interaction", gapped]) == (4, "", err)

    def test_error_lines_render_bindings_as_reports_do(self, capsys, identified, tmp_path):
        sparse = write_json(tmp_path / "sparse.json", joint_to_doc(sparse_joint()))
        with open(identified["fwd_rewards"], encoding="utf-8") as fh:
            rewards = json.load(fh)
        dup = dict(rewards, entries=rewards["entries"] + rewards["entries"][:1])
        short = dict(rewards, entries=rewards["entries"][1:])
        bad_r = dict(rewards, entries=[dict(rewards["entries"][0], r="x")])
        with open(identified["fwd_interaction"], encoding="utf-8") as fh:
            interaction = json.load(fh)
        gapped = dict(interaction, entries=interaction["entries"][1:])
        cases = [
            (["solve", sparse], 3),
            (["solve", F3, "--rewards", write_json(tmp_path / "dup.json", dup)], 2),
            (["solve", F3, "--rewards", write_json(tmp_path / "short.json", short)], 4),
            (["check", F3, "--rewards", write_json(tmp_path / "bad_r.json", bad_r)], 2),
            (["construct", F3, "--interaction", write_json(tmp_path / "gap.json", gapped)], 4),
        ]
        for argv, want in cases:
            code, out, err = run(capsys, argv)
            assert (code, out) == (want, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Assignment(" not in err, err
            assert "Y=0,Z=0" in err or "Y=1,Z=0" in err, err

    def test_commute_needs_swapped_file(self, capsys, identified):
        code, _, err = run(
            capsys,
            ["check", F3, "--rewards", identified["fwd_rewards"], "--checks", "commute"],
        )
        assert code == 2
        assert "rewards-swapped" in err


class TestConstruct:
    def test_rebuilds_posteriors(self, capsys, identified):
        doc = run_json(capsys, ["construct", F3, "--interaction", identified["fwd_interaction"]])
        for entry in doc["entries"]:
            want = 0.8 if entry["context"]["Z"] == "0" else 0.2
            assert entry["posterior"][0]["q"] == pytest.approx(want, abs=1e-12)
            assert entry["normalization_residual"] <= 1e-12

    def test_offset_signal_exits_1(self, capsys, identified, tmp_path):
        with open(identified["fwd_interaction"], encoding="utf-8") as fh:
            doc = json.load(fh)
        for entry in doc["entries"]:
            entry["i"] += 0.1
        offset = write_json(tmp_path / "offset.json", doc)
        code, _, err = run(capsys, ["construct", F3, "--interaction", offset])
        assert code == 1
        assert err.startswith("error:")


    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_must_be_finite_and_nonnegative(self, capsys, identified, tmp_path, tol):
        # every finite i raised by 5: inadmissible at any finite tolerance
        with open(identified["fwd_interaction"], encoding="utf-8") as fh:
            doc = json.load(fh)
        for entry in doc["entries"]:
            if entry["i"] != "-inf":
                entry["i"] += 5.0
        raised = write_json(tmp_path / "raised.json", doc)
        code, _, err = run(capsys, ["construct", F3, "--interaction", raised])
        assert code == 1 and "residual 5.0 > 1e-08" in err
        out = tmp_path / "posteriors.json"
        argv = ["construct", F3, "--interaction", raised, "--tol", tol, "--out", str(out)]
        assert run(capsys, argv) == (
            2, "", f"error: --tol must be finite and >= 0, got {float(tol)!r}\n"
        )
        assert not out.exists()


class TestCountable:
    def family_doc(self, slope):
        return {
            "prior": {"kind": "geometric", "q": 0.5},
            "payoff": {"kind": "linear", "slope": slope},
            "bounds": {"tail": "geometric", "payoff": "linear"},
        }

    def test_finite_family(self, capsys, tmp_path):
        fam = write_json(tmp_path / "fam.json", self.family_doc(math.log(1.5)))
        doc = run_json(capsys, ["countable", fam])
        assert doc["status"] == "finite"
        assert doc["log_normalizer"] == pytest.approx(math.log(2.0), abs=1e-9)
        assert doc["tail_bound"] < 1e-12 * math.exp(doc["log_partial"])

    def test_divergent_family(self, capsys, tmp_path):
        fam = write_json(tmp_path / "fam.json", self.family_doc(math.log(3.0)))
        doc = run_json(capsys, ["countable", fam])
        assert doc["status"] == "diverged"
        assert doc["log_normalizer"] == "inf"

    def test_inconclusive_family_with_tiny_budget(self, capsys, tmp_path):
        fam = write_json(tmp_path / "fam.json", self.family_doc(math.log(2.0)))
        doc = run_json(capsys, ["countable", fam, "--max-doublings", "3"])
        assert doc["status"] == "inconclusive"

    @pytest.mark.parametrize("payoff", [{"slope": 800.0}, {"slope": 0.1, "intercept": 800.0}])
    def test_parameters_beyond_exp_range(self, capsys, tmp_path, payoff):
        # e^800 overflows a double; neither parameter may raise OverflowError
        doc = self.family_doc(0.0)
        doc["payoff"].update(payoff)
        fam = write_json(tmp_path / "fam.json", doc)
        code, out, err = run(capsys, ["countable", fam])
        assert (code, err) == (0, "")
        report = json.loads(out)
        if "intercept" in payoff:  # ratio 0.5 e^0.1 < 1: a finite series, log Z = 800 + ...
            assert report["status"] == "finite"
            want = 800.0 + math.log(0.5) - math.log1p(-0.5 * math.exp(0.1))
            assert report["log_normalizer"] == pytest.approx(want, rel=1e-12)
        else:
            assert report["status"] == "diverged"


class TestWriteFailures:
    """An --out that cannot be written is one error line, exit 1, and no files."""

    def assert_one_error_line(self, code, out, err):
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_countable_into_missing_directory(self, capsys, tmp_path):
        fam = write_json(tmp_path / "fam.json", TestCountable().family_doc(math.log(1.5)))
        target = tmp_path / "missing" / "x.json"
        self.assert_one_error_line(*run(capsys, ["countable", fam, "--out", str(target)]))
        assert not target.parent.exists()

    def test_identify_into_missing_directory(self, capsys, tmp_path):
        prefix = tmp_path / "missing" / "run"
        self.assert_one_error_line(*run(capsys, ["identify", F3, "--out", str(prefix)]))
        assert not prefix.parent.exists()

    def test_identify_removes_artifacts_written_before_a_failure(self, capsys, tmp_path):
        # the second artifact's path is a directory, so its write fails after
        # the first artifact was written
        (tmp_path / "run.rewards.json").mkdir()
        prefix = tmp_path / "run"
        self.assert_one_error_line(*run(capsys, ["identify", F3, "--out", str(prefix)]))
        assert [p.name for p in tmp_path.iterdir()] == ["run.rewards.json"]
        assert not any((tmp_path / "run.rewards.json").iterdir())


class TestParserReuse:
    """main() builds its parser on the first call and reuses it; nothing of
    one call's flags, errors or terminal width carries into the next."""

    def test_flags_do_not_carry_over(self, capsys, tmp_path):
        sparse = write_json(tmp_path / "sparse.json", joint_to_doc(sparse_joint()))
        prefix = tmp_path / "sp"
        assert main(["identify", sparse, "--out", str(prefix)]) == 0
        argv = ["solve", sparse, "--rewards", f"{prefix}.rewards.json"]
        doc = run_json(capsys, argv + ["--fill-zero", "--skip-zero-mass"])
        assert len(doc["entries"]) == 3
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: missing entry for outcome") and err.count("\n") == 1

    def test_valid_call_after_usage_error_matches_golden(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", F1, "--no-such-flag"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: softtilt")
        assert "error: unrecognized arguments: --no-such-flag" in captured.err
        code, out, err = run(capsys, ["solve", F1, "--skip-zero-mass"])
        digest = hashlib.sha256(f"{code}\n".encode() + out.encode()).hexdigest()
        assert (digest, err) == (GOLDEN["f1/solve-zero"], "")

    def test_help_follows_columns_set_after_first_call(self, capsys, monkeypatch):
        run(capsys, ["solve", F1])

        def help_lines(columns):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit) as exc:
                main(["check", "--help"])
            assert exc.value.code == 0
            return capsys.readouterr().out.splitlines()

        # argparse wraps at COLUMNS - 2, except for usage parts it cannot split
        wide, narrow = help_lines(200), help_lines(50)
        assert max(map(len, wide)) > 60
        assert len(narrow) > len(wide)
        assert help_lines(200) == wide

    def test_built_once_and_not_at_import(self):
        # a fresh interpreter counts ArgumentParser constructions: none at
        # import, one tree (the parser and its five subparsers) on the first
        # call, none on later calls
        src = Path(softtilt.__file__).resolve().parents[1]
        code = f"""
import argparse, contextlib, io, sys
sys.path.insert(0, {str(src)!r})
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import softtilt.cli
counts = [len(built)]
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()):
        assert softtilt.cli.main(["solve", {F1!r}]) == 0
    counts.append(len(built))
print(counts)
"""
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "[0, 6, 6, 6]\n"


def fresh(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter that imports this checkout's softtilt."""
    src = Path(softtilt.__file__).resolve().parents[1]
    prelude = f"import contextlib, io, sys\nsys.path.insert(0, {str(src)!r})\n"
    result = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


# softtilt.__all__ before its names resolved on first use: sorted, then __version__
PUBLIC_NAMES = """
    Assignment CalibrationResult CertificateStatus CountableFamily CoverageMismatch
    DegenerateProblem Direction DirectionPair DistVector EventValueFunction GaugeComparison
    GaugeShift InadmissibleSignal InfiniteInteraction InteractionTable InvalidBounds JointTable
    MissingContext MissingEventValue NotFinite OrderIndependenceReport OutputError RewardTable
    SchemaError SoftSolution SoftTiltError SoftUpdateProblem SolverConfig SupportViolation
    TruncatedTilt TruncationCertificate UndefinedPMI ValidationError VariableSpec
    ZeroMassContext apply_gauge as_assignment build_problem calibrate_rewards
    check_admissibility commutativity_residual conditional construct_posterior
    default_direction fixture_path gauge_equivalent identify_interaction
    iter_group_assignments joint_f1 joint_f3 kl_decomposition_residual kl_divergence
    log_normalizer_truncated logsumexp marginal objective_value order_independence_check pmi
    soft_value solve_tilt tilt_truncated total_variation __version__
""".split()
SUBMODULES = ("coherence", "countable", "dist", "errors", "fixtures", "identify", "tilt")


class TestImportSet:
    """A joint subcommand loads only the modules it runs; the package face
    resolves each public name from its home module on first use."""

    def test_cli_import_loads_no_countable_fixtures_or_statistics(self):
        out = fresh("""
bare = "statistics" in sys.modules
import softtilt.cli
loaded = [m for m in ("softtilt.countable", "softtilt.fixtures") if m in sys.modules]
print(loaded, "statistics" in sys.modules and not bare)
""")
        assert out == "[] False\n"

    def test_joint_subcommands_do_not_load_countable(self, tmp_path):
        prefix, swapped = str(tmp_path / "run"), str(tmp_path / "swp")
        calls = [
            ["identify", F3, "--out", prefix],
            ["identify", F3, "--direction", "z_given_yx", "--out", swapped],
            ["solve", F3],
            ["construct", F3, "--interaction", f"{prefix}.interaction.json"],
            ["check", F3, "--rewards", f"{prefix}.rewards.json",
             "--rewards-swapped", f"{swapped}.rewards.json",
             "--checks", "admissibility,decomposition,commute"],
        ]
        out = fresh(f"""
import softtilt.cli
for argv in {calls!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert softtilt.cli.main(argv) == 0, argv
print("softtilt.countable" in sys.modules)
""")
        assert out == "False\n"

    def test_countable_loads_it_with_the_library_budget(self, tmp_path):
        fam = write_json(tmp_path / "fam.json", TestCountable().family_doc(math.log(1.5)))
        out = fresh(f"""
import softtilt.cli
reports = []
for flags in ([], ["--start", "16", "--max-doublings", "17"]):
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert softtilt.cli.main(["countable", {fam!r}, *flags]) == 0
    reports.append(text.getvalue())
print("softtilt.countable" in sys.modules, reports[0] == reports[1], len(reports[0]) > 100)
""")
        assert out == "True True True\n"

    def test_bare_import_loads_no_submodule_and_resolves_them(self):
        out = fresh("""
import softtilt
print([m for m in sys.modules if m.startswith("softtilt.")])
print(softtilt.countable is sys.modules["softtilt.countable"])
""")
        assert out == "[]\nTrue\n"

    def test_all_is_the_pinned_list_and_each_name_its_home_object(self):
        assert softtilt.__all__ == PUBLIC_NAMES
        for name in PUBLIC_NAMES[:-1]:
            obj = getattr(softtilt, name)
            home = importlib.import_module(f"softtilt.{softtilt._HOME[name]}")
            assert obj is getattr(home, name) and obj.__module__ == home.__name__, name

    def test_dir_star_import_and_unknown_names(self):
        assert set(dir(softtilt)) >= {*PUBLIC_NAMES, *SUBMODULES}
        namespace: dict = {}
        exec("from softtilt import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
        with pytest.raises(AttributeError, match="no_such_name"):
            softtilt.no_such_name
