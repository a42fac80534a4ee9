"""The joint subcommands against plain references, over random shapes.

A seeded property draws a joint of 2-4 variables with about a third of its
cells zero (`helpers.sparse_random_joint`, the generator of
`test_dist.TestKernelAgainstScan`) and a random direction: a nonempty target,
a possibly empty base and one observed variable, as a direction tag names
them, with the other variables summed out. It runs `identify` in both
directions, `solve`, the four checks and `construct` through `cli.main` on
temporary files, and holds each report to a Fraction scan of the joint as the
CLI reads it back from JSON:

- the interaction equals `ref_pmi` bit for bit, "-inf" on posterior-null
  cells, and covers exactly the prior-supported outcomes of every
  positive-mass context;
- the posteriors of `solve` and `construct` are within 1e-12 of
  `ref_conditional`;
- the contexts, skipped and excluded cells are those of the scan;
- every check on `identify`'s own outputs passes where no posterior-null cell
  is read, and `solve` and `check` exit 4 without `--fill-zero` where one is.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from softtilt import Assignment, iter_group_assignments
from softtilt.cli import main
from softtilt.io import joint_from_doc
from helpers import (
    joint_to_doc,
    random_direction,
    ref_conditional,
    ref_event_mass,
    ref_pmi,
    sparse_random_joint,
    tag,
)

POSTERIOR_TOL = 1e-12


def run(argv) -> tuple[int, dict | None]:
    """main(argv) with its stdout parsed, or None when it printed nothing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    text = out.getvalue()
    assert code == 0 or err.getvalue().startswith("error: ") or text, (argv, code)
    return code, json.loads(text) if text else None


def read(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def key(binding: dict) -> tuple:
    return Assignment(binding).items_sorted


class Scan:
    """A direction's contexts and cells, read off the joint by Fraction scan."""

    def __init__(self, joint, target, base, observed):
        self.joint, self.target, self.base, self.observed = joint, target, base, observed
        specs = joint.group(base + observed)
        self.contexts = sorted(iter_group_assignments(specs), key=lambda a: a.items_sorted)
        self.outcomes = list(iter_group_assignments(joint.group(target)))  # as ref_conditional
        canonical = sorted(self.outcomes, key=lambda a: a.items_sorted)
        self.mass = {ctx: ref_event_mass(joint, ctx) for ctx in self.contexts}
        self.positive = [ctx for ctx in self.contexts if self.mass[ctx]]
        self.skipped = [ctx for ctx in self.contexts if not self.mass[ctx]]
        # prior-supported outcomes of each positive context, and the null cells among them
        self.supported = {}
        self.excluded = []
        for ctx in self.positive:
            b = ctx.restrict(base)
            row = [o for o in canonical if ref_event_mass(self.joint, o.union(b))]
            self.supported[ctx] = row
            self.excluded += [(ctx, o) for o in row if not ref_event_mass(joint, o.union(ctx))]

    def pmi(self, ctx, outcome) -> float:
        return ref_pmi(self.joint, outcome, ctx.restrict(self.observed), ctx.restrict(self.base))


def assert_posteriors(scan: Scan, entries, field: str, contexts) -> None:
    assert [key(e["context"]) for e in entries] == [c.items_sorted for c in contexts]
    for entry, ctx in zip(entries, contexts):
        want = ref_conditional(scan.joint, scan.target, ctx)
        got = {key(q["outcome"]): q["q"] for q in entry[field]}
        assert len(got) == len(want)
        for outcome, p in zip(scan.outcomes, want):
            assert abs(got[outcome.items_sorted] - p) <= POSTERIOR_TOL, (ctx, outcome)


class TestOracle:
    @seed(0x0AC1E)
    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_joint_subcommands_match_reference(self, case):
        rng = random.Random(case)
        doc = joint_to_doc(sparse_random_joint(rng, min_vars=2))
        joint = joint_from_doc(doc)  # the joint as the CLI reads it
        target, base, observed = random_direction(rng, joint.names)
        fwd = Scan(joint, target, base, observed)
        # the swap exchanges target and observed; a tag names one observed variable
        swp = Scan(joint, observed, base, target) if len(target) == 1 else None
        with tempfile.TemporaryDirectory() as tmp:
            self._run(Path(tmp), doc, fwd, swp)

    def _run(self, tmp: Path, doc, fwd: Scan, swp: Scan | None) -> None:
        j = tmp / "joint.json"
        j.write_text(json.dumps(doc), encoding="utf-8")
        scans = {"fwd": fwd} if swp is None else {"fwd": fwd, "swp": swp}
        for side, scan in scans.items():
            direction = tag(scan.target, scan.base + scan.observed)
            code, _ = run(["identify", j, "--direction", direction, "--out", tmp / side])
            assert code == 0
            self._check_identify(tmp / side, scan)

        rewards = tmp / "fwd.rewards.json"
        null_fwd = bool(fwd.excluded)
        skip = ["--skip-zero-mass"] if fwd.skipped else []
        code, report = run(["solve", j, "--rewards", rewards, *skip])
        if null_fwd:
            assert code == 4
            # filled with 0, a null cell's context tilts away from Bayes; no other does
            code, report = run(["solve", j, "--rewards", rewards, "--fill-zero", *skip])
            assert code == 0
            null = {ctx for ctx, _ in fwd.excluded}
            entries = [e for e in report["entries"] if Assignment(e["context"]) not in null]
            assert_posteriors(fwd, entries, "optimizer", [c for c in fwd.positive if c not in null])
        else:
            assert code == 0
            assert_posteriors(fwd, report["entries"], "optimizer", fwd.positive)
        assert [key(s["context"]) for s in report["skipped"]] == [
            c.items_sorted for c in fwd.skipped
        ]
        if fwd.skipped:
            assert run(["solve", j, "--rewards", rewards, "--fill-zero"])[0] == 3

        for check in ("gauge", "admissibility", "decomposition"):
            code, report = run(["check", j, "--rewards", rewards, "--checks", check])
            if null_fwd:
                assert code == 4
                continue
            assert code == 0, report
            (result,) = report["checks"]
            if check != "gauge":
                assert [key(s["at"]) for s in result["skipped"]] == [
                    c.items_sorted for c in fwd.skipped
                ]
        # the interaction file is admissible whatever the rewards
        code, report = run(["check", j, "--rewards", rewards, "--fill-zero", "--checks",
                            "admissibility", "--interaction", tmp / "fwd.interaction.json"])
        assert code == 0, report

        if swp is not None:
            code, report = run(["check", j, "--rewards", rewards, "--checks", "commute",
                                "--rewards-swapped", tmp / "swp.rewards.json"])
            if null_fwd or swp.excluded:
                assert code == 4
            else:
                assert code == 0, report
                cells = iter_group_assignments(fwd.joint.group(fwd.target + fwd.base
                                                               + fwd.observed))
                zero = sorted(c.items_sorted for c in cells if not ref_event_mass(fwd.joint, c))
                (result,) = report["checks"]
                assert [key(s["at"]) for s in result["skipped"]] == zero

        code, report = run(["construct", j, "--interaction", tmp / "fwd.interaction.json"])
        assert code == 0, report
        assert_posteriors(fwd, report["entries"], "posterior", fwd.positive)

    def _check_identify(self, prefix: Path, scan: Scan) -> None:
        report = read(f"{prefix}.report.json")
        assert report["contexts"] == len(scan.positive)
        assert [key(s["context"]) for s in report["skipped"]] == [
            c.items_sorted for c in scan.skipped
        ]
        assert [(key(e["context"]), key(e["outcome"])) for e in report["excluded"]] == [
            (c.items_sorted, o.items_sorted) for c, o in scan.excluded
        ]
        interaction = read(f"{prefix}.interaction.json")["entries"]
        cells = [(c, o) for c in scan.positive for o in scan.supported[c]]
        cells.sort(key=lambda t: (t[0].items_sorted, t[1].items_sorted))
        assert [(key(e["context"]), key(e["outcome"])) for e in interaction] == [
            (c.items_sorted, o.items_sorted) for c, o in cells
        ]
        for entry, (ctx, outcome) in zip(interaction, cells):
            want = scan.pmi(ctx, outcome)
            got = entry["i"]
            if want == float("-inf"):
                assert got == "-inf"
            else:
                assert float(got).hex() == want.hex(), (ctx, outcome)
        rewards = read(f"{prefix}.rewards.json")["entries"]
        null = {(c.items_sorted, o.items_sorted) for c, o in scan.excluded}
        assert [(key(e["context"]), key(e["outcome"])) for e in rewards] == [
            (c.items_sorted, o.items_sorted) for c, o in cells
            if (c.items_sorted, o.items_sorted) not in null
        ]


SUBNORMAL_POSTERIOR = {
    "variables": [{"name": "X", "alphabet": ["0", "1"]}, {"name": "Z", "alphabet": ["0", "1"]}],
    "mass": [
        {"assign": {"X": "0", "Z": "0"}, "p": 0.75},
        {"assign": {"X": "0", "Z": "1"}, "p": 2.5e-310},
        {"assign": {"X": "1", "Z": "0"}, "p": 5e-324},
        {"assign": {"X": "1", "Z": "1"}, "p": 0.25},
    ],
}


@pytest.mark.xfail(strict=True, reason=(
    "P(X=1|Z=0) is subnormal, so the optimizer's float rounds it by about a third "
    "and the decomposition's point-mass probe there misses by log(4/3)"
))
def test_decomposition_passes_with_a_subnormal_posterior(tmp_path):
    j = tmp_path / "joint.json"
    j.write_text(json.dumps(SUBNORMAL_POSTERIOR), encoding="utf-8")
    assert run(["identify", j, "--direction", "x_given_z", "--out", tmp_path / "id"])[0] == 0
    code, report = run(["check", j, "--rewards", tmp_path / "id.rewards.json",
                        "--checks", "decomposition"])
    assert code == 0, report
