"""The one entry writer against `dumps_report` of plain dicts.

Every entry list the CLI writes comes from `io._Shape` (one `%`-template per
entry shape) filled with binding texts from `io._bindings` (one text per grid
cell and depth) and raw floats. Seeded properties hold those pieces to
`io._render`, the renderer behind `dumps_report`, over names and labels that
JSON escapes (quotes, backslashes, braces, percent signs, control and
non-ASCII characters), one-label alphabets, multi-variable groups, empty
lists, and float fields (in any position among the keys) of random 64-bit
patterns, subnormals, signed zeros and the largest double, with one NaN or
infinity among them in some lists. Another holds the template's `%.17g` to
`format(x, ".17g")`, which `format_float` writes.

A third runs every joint report kind through `cli.main` (`identify`'s report
and artifacts, `solve` with and without a rewards file, the four checks,
`check --interaction` and `construct`) on random joints with such labels and
zero-mass contexts, and compares each stdout with `dumps_report` of a plain
reference dict, which it builds as the CLI built its reports before the
writer: from the library's public functions, with `Assignment`s sorted by
`items_sorted` and bindings as dicts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from softtilt import (
    Assignment,
    DirectionPair,
    DistVector,
    EventValueFunction,
    InteractionTable,
    JointTable,
    RewardTable,
    SolverConfig,
    VariableSpec,
    build_problem,
    calibrate_rewards,
    check_admissibility,
    conditional,
    construct_posterior,
    gauge_equivalent,
    identify_interaction,
    iter_group_assignments,
    kl_decomposition_residual,
    order_independence_check,
    solve_tilt,
)
from softtilt.cli import main
from softtilt.identify import ADMIT_TOL, IDENTITY_TOL, Direction
from softtilt.io import (
    _bindings,
    _render,
    _Shape,
    dumps_report,
    format_float,
    interaction_from_doc,
    joint_from_doc,
    joint_to_doc,
    reward_from_doc,
)
from helpers import random_baseline, random_direction, ref_gauge, ref_rewards, ref_table_doc

# names and labels holding what JSON escapes, and what a template would read:
# quotes, backslashes, braces, percent signs, control and non-ASCII characters
# (one outside the BMP)
_TEXT = st.text(
    st.sampled_from('aZ"\\{}%\x00\x1f\u00e9\u2192\U0001f600 '), min_size=1, max_size=3
)
_FLOATS = st.one_of(
    st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308)),
    st.floats(),
)
_NONFINITE = (math.nan, math.inf, -math.inf)


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# finite doubles: any 64-bit pattern, subnormals, signed zeros, the largest double
_FINITE = st.one_of(
    st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite),
    st.tuples(st.integers(0, 1), st.integers(1, 2**52 - 1)).map(
        lambda t: _double(t[0] << 63 | t[1])),  # a subnormal of either sign
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)),
)


@st.composite
def _grids(draw):
    """A joint over 1-4 variables of 1-3 labels each, a nonempty group of it and a depth."""
    names = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    specs = [VariableSpec(n, tuple(draw(st.lists(_TEXT, min_size=1, max_size=3, unique=True))))
             for n in names]
    cells = list(iter_group_assignments(specs))
    joint = JointTable(specs, [(c, Fraction(1, len(cells))) for c in cells])
    group = tuple(sorted(draw(st.sets(st.integers(0, len(specs) - 1), min_size=1))))
    return joint, group, draw(st.integers(0, 6))


class TestWriterPieces:
    @seed(0xB1D5)
    @settings(max_examples=80)
    @given(_grids())
    def test_bindings_match_render(self, grid):
        joint, group, depth = grid
        texts, order = _bindings(joint, group, depth)
        cells = list(iter_group_assignments(joint.variables[v] for v in group))
        assert texts == [_render(dict(a.items_sorted), depth) for a in cells]
        assert order == sorted(range(len(cells)), key=lambda i: cells[i].items_sorted)
        assert _bindings(joint, group, depth) == (texts, order)

    @seed(0x5AFE)
    @settings(max_examples=80)
    @given(
        keys=st.lists(_TEXT, min_size=1, max_size=4, unique=True),
        depth=st.integers(0, 5),
        data=st.data(),
    )
    def test_shape_matches_render(self, keys, depth, data):
        value = st.one_of(_FLOATS, _TEXT, st.dictionaries(_TEXT, _TEXT, min_size=1, max_size=3))
        rows = data.draw(st.lists(st.fixed_dictionaries({k: value for k in keys}), max_size=4))

        def text(v):
            if isinstance(v, float):
                return format_float(v)
            return _render(v, depth + 2)

        got = _Shape(depth, *keys)([tuple(text(row[k]) for k in keys) for row in rows])
        assert got == _render(rows, depth)
        if depth == 1:  # a shape's text nests in a document as it is
            assert _render({"k": got}, 0) == dumps_report({"k": rows})

    @seed(0xF1E1D5)
    @settings(max_examples=300)
    @given(
        keys=st.lists(_TEXT, min_size=1, max_size=4, unique=True),
        depth=st.integers(0, 5),
        data=st.data(),
    )
    def test_float_fields_match_render(self, keys, depth, data):
        """Raw floats in a shape's float fields, texts in the others, as `_render`
        writes the dicts: by the template where every float is finite, else each
        float as `format_float` writes it."""
        floats = data.draw(st.sets(st.sampled_from(keys)))
        text = st.one_of(_TEXT, st.dictionaries(_TEXT, _TEXT, min_size=1, max_size=3))
        rows = data.draw(st.lists(st.fixed_dictionaries(
            {k: _FINITE if k in floats else text for k in keys}), max_size=5))
        if floats and rows and data.draw(st.booleans()):  # one NaN or infinity among them
            row = data.draw(st.sampled_from(rows))
            row[data.draw(st.sampled_from(sorted(floats)))] = data.draw(st.sampled_from(_NONFINITE))
        shape = _Shape(depth, *keys, floats=tuple(floats))
        got = shape([tuple(row[k] if k in floats else _render(row[k], depth + 2) for k in keys)
                     for row in rows])
        assert got == _render(rows, depth)

    @seed(0x17)
    @settings(max_examples=2000)
    @given(st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite))
    def test_template_digits_match_format(self, x):
        assert "%.17g" % x == format(x, ".17g") == format_float(x)


# ------------------------------------------------- every report kind, end to end

NAMES = ('A"', "B\\", "C\u00e9", "D")
LABELS = ("0", "1", 'a"b', "c\\d", "\u00e9", "\u03a9", "{x}", "\U0001f600")
ALPHA = 1.5


def random_case(rng: random.Random) -> tuple[dict, Direction]:
    """A joint over 2-4 of NAMES with 1-3 of LABELS each, about a third of its
    cells zero, and a direction on it; in half the draws, every cell of one label
    of a base variable (an observed one where the base is empty) is zero too."""
    specs = [VariableSpec(n, tuple(rng.sample(LABELS, rng.randint(1, 3))))
             for n in rng.sample(NAMES, rng.randint(2, 4))]
    target, base, observed = random_direction(rng, [s.name for s in specs])
    cells = list(iter_group_assignments(specs))
    raw = [0 if rng.random() < 0.3 else rng.randint(1, 99) for _ in cells]
    raw[rng.randrange(len(raw))] = rng.randint(1, 99)
    name = rng.choice(base or observed)
    label = rng.choice(next(s.alphabet for s in specs if s.name == name))
    kept = [0 if cell[name] == label else w for cell, w in zip(cells, raw)]
    if rng.random() < 0.5 and any(kept):
        raw = kept
    total = sum(raw)
    joint = JointTable(specs, [(c, Fraction(w, total)) for c, w in zip(cells, raw)])
    return joint_to_doc(joint), Direction(tuple(target), tuple(base), tuple(observed))


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def read(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def binding(a) -> dict:
    return dict(a.items_sorted)


def canonical(assignments) -> list:
    return sorted(assignments, key=lambda a: a.items_sorted)


class Ref:
    """Plain reference reports of one joint and direction, from public functions."""

    def __init__(self, joint: JointTable, direction: Direction):
        self.joint, self.direction = joint, direction
        self.contexts = canonical(iter_group_assignments(joint.group(direction.conditioning)))
        self.outcomes = list(iter_group_assignments(joint.group(direction.target)))
        self.zero = [c for c in self.contexts if not joint.event_mass(c)]

    def header(self, **fields) -> dict:
        d = self.direction
        groups = {"target": list(d.target), "base": list(d.base), "observed": list(d.observed)}
        return {"direction": d.tag, "direction_groups": groups, **fields}

    def dist(self, probs) -> list:
        pairs = sorted(zip(self.outcomes, probs), key=lambda t: t[0].items_sorted)
        return [{"outcome": binding(o), "q": q} for o, q in pairs]

    def skipped(self, reason: str) -> list:
        return [{"context": binding(c), "reason": reason} for c in self.zero]

    def identify(self) -> tuple[dict, dict, dict]:
        calib = calibrate_rewards(self.joint, self.direction, EventValueFunction.zero(), ALPHA)
        report = self.header(
            alpha=ALPHA,
            contexts=len(calib.interaction.values),
            context_values=[{"context": binding(c), "V": calib.context_values[c]}
                            for c in canonical(calib.context_values)],
            excluded=[{"context": binding(c), "outcome": binding(o), "reason": "zero joint mass"}
                      for c, o in sorted(calib.excluded,
                                         key=lambda t: (t[0].items_sorted, t[1].items_sorted))],
            skipped=self.skipped("zero conditioning mass"),
        )
        interaction = ref_table_doc(self.direction, ALPHA, calib.interaction.values,
                                    lambda c, o, i: {"i": "-inf" if i == -math.inf else i})
        rewards = ref_table_doc(self.direction, ALPHA, calib.rewards.entries,
                                lambda c, o, r: {"r": r, "V": 0.0})
        return report, interaction, rewards

    def solve(self, loaded) -> dict:
        if loaded is None:  # no rewards file: zero rewards and terminals, alpha 1
            rewards = RewardTable(self.direction, {
                c: {o: 0.0 for o in self.outcomes} for c in self.contexts
            })
            terminals, alpha = EventValueFunction.zero(), 1.0
        else:
            rewards, terminals, alpha = loaded.rewards, loaded.terminals, loaded.alpha
        entries = []
        for c in self.contexts:
            if self.joint.event_mass(c):
                problem = build_problem(self.joint, terminals, SolverConfig(alpha), rewards, c)
                solution = solve_tilt(problem)
                entries.append({
                    "context": binding(c),
                    "optimizer": self.dist(solution.optimizer.probs),
                    "soft_value": solution.soft_value,
                    "log_normalizer": solution.log_normalizer,
                })
        return self.header(alpha=alpha, entries=entries,
                           skipped=self.skipped("zero conditioning mass"))

    def check_doc(self, check, tol, residuals, skipped, details=None, max_residual=None) -> dict:
        if max_residual is None:
            max_residual = max(residuals.values(), default=0.0)
        doc = {
            "check": check,
            "tolerance": tol,
            "max_residual": max_residual,
            "passed": max_residual <= tol,
            "residuals": [{"at": binding(c), "residual": v}
                          for c, v in sorted(residuals.items(), key=lambda t: t[0].items_sorted)],
            "skipped": [{"at": binding(c), "reason": r}
                        for c, r in sorted(skipped, key=lambda t: t[0].items_sorted)],
        }
        if details is not None:
            doc["details"] = details
        return doc

    def gauge(self, loaded) -> dict:
        """The file's rewards against `ref_rewards` under its terminals, by `ref_gauge`."""
        fresh = ref_rewards(self.joint, self.direction, loaded.terminals, loaded.alpha)
        residuals, shifts, max_residual, witness = ref_gauge(
            (loaded.rewards, loaded.terminals), (fresh, loaded.terminals), self.joint
        )
        details = {"convention": loaded.rewards.convention}
        if max_residual <= IDENTITY_TOL:
            details["shifts"] = [{"context": binding(c), "c": shifts[c]} for c in canonical(shifts)]
        elif witness is not None:
            details["witness"] = binding(witness[0].union(witness[1]))
        residuals = {c.union(o): v for (c, o), v in residuals.items()}
        return self.check_doc("gauge", IDENTITY_TOL, residuals, [], details, max_residual)

    def admissibility(self, interaction_doc=None) -> dict:
        if interaction_doc is None:
            table, tol, source = identify_interaction(self.joint, self.direction), IDENTITY_TOL, (
                "identified from joint")
        else:
            table, tol, source = interaction_from_doc(interaction_doc, self.joint)[1], ADMIT_TOL, (
                "external file")
        skipped = [(c, "zero conditioning mass") for c in self.zero]
        return self.check_doc("admissibility", tol, check_admissibility(table, self.joint),
                              skipped, {"source": source})

    def decomposition(self, loaded) -> dict:
        residuals = {}
        for c in self.contexts:
            if not self.joint.event_mass(c):
                continue
            problem = build_problem(self.joint, loaded.terminals, SolverConfig(loaded.alpha),
                                    loaded.rewards, c)
            probes = [problem.prior, solve_tilt(problem).optimizer]
            for i, p in enumerate(problem.prior.probs):
                if p > 0:
                    point = tuple(1.0 if j == i else 0.0 for j in range(len(problem.prior.probs)))
                    probes.append(DistVector(problem.prior.over, point))
            residuals[c] = max(kl_decomposition_residual(problem, q) for q in probes)
        skipped = [(c, "zero conditioning mass") for c in self.zero]
        return self.check_doc("decomposition", IDENTITY_TOL, residuals, skipped)

    def commute(self, loaded, swapped) -> dict:
        values = {}
        for terminals in (swapped.terminals, loaded.terminals):  # the forward file's win
            values.update((e, terminals.value(e)) for e in terminals.events())
        pair = DirectionPair(self.joint, EventValueFunction(values),
                             SolverConfig(loaded.alpha), self.direction)
        report = order_independence_check(pair, loaded.rewards, swapped.rewards, IDENTITY_TOL)
        details = {
            "identification_max": {
                t: max(row.values(), default=0.0) for t, row in report.identification.items()
            },
            "symmetry_max": max(report.symmetry.values(), default=0.0),
            "commutativity_max": max(report.commutativity.values(), default=0.0),
        }
        return self.check_doc("commute", IDENTITY_TOL, report.commutativity, report.skipped,
                              details, report.max_residual)

    def construct(self, interaction_doc) -> dict:
        table = interaction_from_doc(interaction_doc, self.joint)[1]
        base = self.direction.base
        entries, skipped = [], []
        for c in canonical(table.values):
            if not self.joint.event_mass(c.restrict(base)):
                skipped.append({"context": binding(c), "reason": "zero base mass"})
                continue
            prior = conditional(self.joint, self.direction.target, c.restrict(base))
            signal = [table.values[c][o] if p else 0.0 for o, p in zip(self.outcomes, prior.probs)]
            one = InteractionTable(self.direction, {c: table.values[c]})
            entries.append({
                "context": binding(c),
                "posterior": self.dist(construct_posterior(prior, signal, ADMIT_TOL).probs),
                "normalization_residual": check_admissibility(one, self.joint)[c],
            })
        return self.header(tol_admit=ADMIT_TOL, entries=entries, skipped=skipped)


class TestReportsMatchReference:
    @seed(0x5E9017)
    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_report_kind(self, case):
        rng = random.Random(case)
        doc, fwd = random_case(rng)
        joint = joint_from_doc(doc)  # the joint as the CLI reads it
        with tempfile.TemporaryDirectory() as tmp:
            self._run(Path(tmp), doc, joint, fwd, rng)

    def _run(self, tmp: Path, doc, joint, fwd: Direction, rng: random.Random) -> None:
        j = tmp / "joint.json"
        j.write_text(json.dumps(doc), encoding="utf-8")
        ref = Ref(joint, fwd)

        def same(argv, want: dict) -> None:
            code, out = run(argv)
            assert code in (0, 1), argv
            assert out == dumps_report(want) + "\n", argv

        prefix = tmp / "fwd"
        assert run(["identify", j, "--alpha", ALPHA, "--direction", fwd.tag,
                    "--out", prefix]) == (0, "")
        files = [Path(f"{prefix}.{part}.json") for part in ("report", "interaction", "rewards")]
        for path, want in zip(files, ref.identify()):
            assert path.read_text(encoding="utf-8") == dumps_report(want) + "\n"
        rewards = f"{prefix}.rewards.json"
        loaded = reward_from_doc(read(rewards), joint, fill_zero=True)

        same(["solve", j, "--rewards", rewards, "--skip-zero-mass", "--fill-zero"],
             ref.solve(loaded))
        same(["solve", j, "--direction", fwd.tag, "--skip-zero-mass"], ref.solve(None))

        argv = ["check", j, "--rewards", rewards, "--fill-zero"]
        checks = [ref.gauge(loaded), ref.admissibility(), ref.decomposition(loaded)]
        if len(fwd.target) == 1:  # a tag names one observed variable, so the swap has a tag
            swp = fwd.swapped()
            swp_prefix = tmp / "swp"
            run(["identify", j, "--alpha", ALPHA, "--direction", swp.tag, "--out", swp_prefix])
            swapped = f"{swp_prefix}.rewards.json"
            argv += ["--rewards-swapped", swapped]
            checks.insert(2, ref.commute(loaded, reward_from_doc(read(swapped), joint, True)))
        all_passed = all(c["passed"] for c in checks)
        same(argv, ref.header(alpha=loaded.alpha, checks=checks, all_passed=all_passed))

        # one reward moved off its gauge class: the check fails with a witness, no shifts
        moved = read(rewards)
        moved["entries"][rng.randrange(len(moved["entries"]))]["r"] += 1.0
        off = tmp / "moved.rewards.json"
        off.write_text(json.dumps(moved), encoding="utf-8")
        gauge = ref.gauge(reward_from_doc(moved, joint, fill_zero=True))
        same(["check", j, "--rewards", off, "--fill-zero", "--checks", "gauge"],
             ref.header(alpha=loaded.alpha, checks=[gauge], all_passed=gauge["passed"]))

        # an external interaction file with one context all -inf: an infinite residual
        interaction = read(f"{prefix}.interaction.json")
        inf = json.loads(json.dumps(interaction))
        if inf["entries"]:
            first = inf["entries"][0]["context"]
            for entry in inf["entries"]:
                if entry["context"] == first:
                    entry["i"] = "-inf"
        bad = tmp / "inf.interaction.json"
        bad.write_text(json.dumps(inf), encoding="utf-8")
        admissibility = ref.admissibility(inf)
        same(["check", j, "--rewards", rewards, "--fill-zero", "--interaction", bad,
              "--checks", "admissibility"],
             ref.header(alpha=loaded.alpha, checks=[admissibility],
                        all_passed=admissibility["passed"]))

        # rows for the zero-mass contexts too: those of zero base mass are skipped
        for c in ref.zero:
            interaction["entries"] += [{"context": binding(c), "outcome": binding(o), "i": 0.0}
                                       for o in ref.outcomes]
        rng.shuffle(interaction["entries"])
        extended = tmp / "extended.interaction.json"
        extended.write_text(json.dumps(interaction), encoding="utf-8")
        same(["construct", j, "--interaction", extended, "--skip-zero-mass"],
             ref.construct(interaction))


# ------------------------------------------------ the gauge check, bit for bit

def hexed(residuals: dict) -> list:
    """(key, residual as float.hex) pairs, in the mapping's order."""
    return [(key, float(v).hex()) for key, v in residuals.items()]


class TestGaugeMatchesReference:
    """`gauge_equivalent` and `check --checks gauge` against `helpers.ref_gauge`.

    Each draw takes a `random_case` joint (zero cells, and in half the draws a
    zero-mass context), random terminal values on the direction's full events
    and a random baseline. Rewards calibrated under a baseline and under none lie
    in one gauge class; moving some entries off it must make the comparison
    fail with the reference's witness. Residuals, shifts, the largest residual
    and the witness must agree bit for bit.
    """

    @seed(0x6A06E)
    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_gauge_matches_reference(self, case):
        rng = random.Random(case)
        doc, fwd = random_case(rng)
        joint = joint_from_doc(doc)
        events = list(iter_group_assignments(joint.group(fwd.target + fwd.conditioning)))
        values = [EventValueFunction({e: rng.uniform(-2.0, 2.0) for e in events})
                  for _ in range(2)]
        a = calibrate_rewards(joint, fwd, values[0], ALPHA,
                              baseline=random_baseline(rng, joint, fwd.conditioning)).rewards
        if rng.random() < 0.5:  # some entries moved off the class
            a = RewardTable(fwd, {ctx: {o: r + rng.choice((0.0, rng.uniform(-1.0, 1.0)))
                                        for o, r in row.items()} for ctx, row in a.entries.items()})
        b = calibrate_rewards(joint, fwd, values[1], ALPHA).rewards
        self.assert_library_agrees((a, values[0]), (b, values[1]), joint)
        with tempfile.TemporaryDirectory() as tmp:
            self.assert_cli_agrees(Path(tmp), doc, joint, fwd, a, values[0])

    def assert_library_agrees(self, a, b, joint) -> None:
        residuals, shifts, max_residual, witness = ref_gauge(a, b, joint)
        cmp = gauge_equivalent(a, b, joint)
        assert hexed(cmp.residuals) == hexed(residuals)
        assert cmp.max_residual.hex() == max_residual.hex()
        assert cmp.equivalent == (max_residual <= IDENTITY_TOL)
        if cmp.equivalent:
            assert (cmp.shifts, cmp.witness) == (shifts, None)
            assert hexed(cmp.shifts) == hexed(shifts)
        else:
            assert (cmp.shifts, cmp.witness) == (None, witness)

    def assert_cli_agrees(self, tmp: Path, doc, joint, fwd, rewards, values) -> None:
        """`check --checks gauge` on a rewards file of the table, V from values."""
        rewards_doc = ref_table_doc(fwd, ALPHA, rewards.entries, lambda c, o, r: {
            "r": r, "V": values.value(o.union(c))
        })
        (tmp / "joint.json").write_text(json.dumps(doc), encoding="utf-8")
        (tmp / "rewards.json").write_text(json.dumps(rewards_doc), encoding="utf-8")
        code, out = run(["check", tmp / "joint.json", "--rewards", tmp / "rewards.json",
                         "--checks", "gauge", "--fill-zero"])
        (check,) = json.loads(out)["checks"]
        loaded = reward_from_doc(rewards_doc, joint, fill_zero=True)
        fresh = ref_rewards(joint, fwd, loaded.terminals, ALPHA)
        residuals, shifts, max_residual, witness = ref_gauge(
            (loaded.rewards, loaded.terminals), (fresh, loaded.terminals), joint
        )
        passed = max_residual <= IDENTITY_TOL
        assert (code, check["passed"]) == (0 if passed else 1, passed)
        assert float(check["max_residual"]).hex() == max_residual.hex()
        got = {Assignment(e["at"]): e["residual"] for e in check["residuals"]}
        want = {c.union(o): v for (c, o), v in residuals.items()}
        assert hexed(got) == hexed({e: want[e] for e in canonical(want)})
        details = check["details"]
        if passed:
            assert "witness" not in details
            got = {Assignment(e["context"]): e["c"] for e in details["shifts"]}
            assert hexed(got) == hexed({c: shifts[c] for c in canonical(shifts)})
        else:
            assert "shifts" not in details
            assert details["witness"] == binding(witness[0].union(witness[1]))
