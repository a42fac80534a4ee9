"""The coverage contract of reward and interaction tables.

A table covers every positive-mass context of its direction, and in each
context every outcome the prior supports. Each table the CLI reads is held to
it: a gap is a CoverageMismatch, which exits 4 with one error line, an empty
stdout and no --out file. CoverageMismatch is a ValidationError, so library
callers that catch input faults catch it too.
"""

from __future__ import annotations

import json

import pytest

from softtilt import (
    Assignment,
    CoverageMismatch,
    Direction,
    EventValueFunction,
    InteractionTable,
    RewardTable,
    SolverConfig,
    ValidationError,
    build_problem,
    calibrate_rewards,
    check_admissibility,
    fixture_path,
    identify_interaction,
    joint_f3,
)
from softtilt.cli import main

F3 = str(fixture_path("f3.json"))
FWD = Direction(target=("X",), base=("Y",), observed=("Z",))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> dict:
    """identify's documents for f3 in both directions, by kind."""
    out = tmp_path_factory.mktemp("identified")
    assert main(["identify", F3, "--out", str(out / "fwd")]) == 0
    assert main(["identify", F3, "--direction", "z_given_yx", "--out", str(out / "swp")]) == 0
    paths = {
        "rewards": out / "fwd.rewards.json",
        "interaction": out / "fwd.interaction.json",
        "swapped": out / "swp.rewards.json",
    }
    docs = {kind: json.loads(path.read_text(encoding="utf-8")) for kind, path in paths.items()}
    docs["ok"] = str(paths["rewards"])
    return docs


def missing_outcome(doc: dict) -> dict:
    """The document without its first entry, a prior-supported outcome."""
    return dict(doc, entries=doc["entries"][1:])


def missing_context(doc: dict) -> dict:
    """The document without any entry of its first context, a positive-mass one."""
    first = doc["entries"][0]["context"]
    return dict(doc, entries=[e for e in doc["entries"] if e["context"] != first])


# (label, kind of the faulty file, argv with {bad} and {ok}, stderr by fault);
# {ok} is identify's rewards file
CASES = [
    ("solve-rewards", "rewards", ["solve", F3, "--rewards", "{bad}"], {
        "outcome": "missing entry for outcome X=0 at context Y=0,Z=0 "
                   "(pass --fill-zero to default missing entries to 0)",
        "context": "rewards file has no entries for positive-mass context Y=0,Z=0",
    }),
    ("check-rewards", "rewards", ["check", F3, "--rewards", "{bad}"], {
        "outcome": "missing entry for outcome X=0 at context Y=0,Z=0 "
                   "(pass --fill-zero to default missing entries to 0)",
        "context": "rewards file has no entries for positive-mass context Y=0,Z=0",
    }),
    ("check-rewards-swapped", "swapped",
     ["check", F3, "--rewards", "{ok}", "--rewards-swapped", "{bad}", "--checks", "commute"], {
        "outcome": "missing entry for outcome Z=0 at context X=0,Y=0 "
                   "(pass --fill-zero to default missing entries to 0)",
        "context": "--rewards-swapped file has no entries for positive-mass context X=0,Y=0",
    }),
    # a swapped file is held to the rule also where no requested check reads it
    ("check-rewards-swapped-unread", "swapped",
     ["check", F3, "--rewards", "{ok}", "--rewards-swapped", "{bad}", "--checks", "gauge"], {
        "outcome": "missing entry for outcome Z=0 at context X=0,Y=0 "
                   "(pass --fill-zero to default missing entries to 0)",
        "context": "--rewards-swapped file has no entries for positive-mass context X=0,Y=0",
    }),
    ("check-interaction", "interaction",
     ["check", F3, "--rewards", "{ok}", "--interaction", "{bad}", "--checks", "admissibility"], {
        "outcome": "interaction table misses prior-supported outcome X=0 at context Y=0,Z=0",
        "context": "interaction file has no entries for positive-mass context Y=0,Z=0",
    }),
    ("construct-interaction", "interaction", ["construct", F3, "--interaction", "{bad}"], {
        "outcome": "interaction table misses prior-supported outcome X=0 at context Y=0,Z=0",
        "context": "interaction file has no entries for positive-mass context Y=0,Z=0",
    }),
]
FAULTS = {"outcome": missing_outcome, "context": missing_context}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("label, kind, argv, errors", CASES, ids=[c[0] for c in CASES])
def test_cli_coverage_fault_exits_4(capsys, tmp_path, artifacts, fault, label, kind, argv, errors):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(FAULTS[fault](artifacts[kind])), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = [arg.format(bad=bad, ok=artifacts["ok"]) for arg in argv]
    code = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (4, "", f"error: {errors[fault]}\n")
    assert not out.exists()


def test_coverage_mismatch_is_a_validation_error():
    assert issubclass(CoverageMismatch, ValidationError)


CTX = Assignment({"Y": "0", "Z": "0"})


def test_check_admissibility_raises_on_missing_outcome():
    j = joint_f3()
    table = identify_interaction(j, FWD)
    values = {ctx: dict(row) for ctx, row in table.values.items()}
    del values[CTX][Assignment({"X": "0"})]
    with pytest.raises(CoverageMismatch, match="interaction table misses prior-supported outcome"):
        check_admissibility(InteractionTable(direction=FWD, values=values), j)


def test_build_problem_raises_on_missing_outcome_or_context():
    j = joint_f3()
    zero = EventValueFunction.zero()
    rewards = calibrate_rewards(j, FWD, zero, alpha=1.0).rewards
    entries = {ctx: dict(row) for ctx, row in rewards.entries.items()}
    del entries[CTX][Assignment({"X": "1"})]
    gapped = RewardTable(direction=FWD, entries=entries, convention="gapped")
    with pytest.raises(CoverageMismatch, match="reward table misses prior-supported outcome X=1"):
        build_problem(j, zero, SolverConfig(alpha=1.0), gapped, CTX)
    del entries[CTX]
    with pytest.raises(CoverageMismatch, match="reward table has no entries for context"):
        build_problem(j, zero, SolverConfig(alpha=1.0), gapped, CTX)
