"""Wire formats: loaders reject malformed documents, writer is deterministic."""

from __future__ import annotations

import itertools
import json
import math
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from softtilt import (
    Assignment,
    CoverageMismatch,
    Direction,
    EventValueFunction,
    InteractionTable,
    JointTable,
    RewardTable,
    SchemaError,
    SoftTiltError,
    VariableSpec,
    calibrate_rewards,
    identify_interaction,
    iter_group_assignments,
    joint_f3,
    log_normalizer_truncated,
)
from softtilt.cli import _INTERACTIONS, _REWARDS, main
from softtilt.identify import _lookup, _split
from softtilt.io import (
    _read_rows,
    _table_text,
    baseline_from_doc,
    direction_fields,
    direction_from_doc,
    direction_from_tag,
    dumps_report,
    family_from_doc,
    format_float,
    interaction_from_doc,
    joint_from_doc,
    load_json,
    reward_from_doc,
    segment_names,
    values_from_doc,
)
from helpers import (
    joint_to_doc,
    random_direction,
    ref_joint_doc,
    ref_rows,
    ref_table_doc,
    sparse_joint,
    sparse_random_joint,
    tag,
    values_to_doc,
)

FWD = Direction(target=("X",), base=("Y",), observed=("Z",))


def table_text(joint, direction, alpha, table, shape, values) -> str:
    """What the row writer makes of a table keyed by context and outcome, each
    entry filled by `shape` with the floats values(context, outcome, value)."""
    s = _split(joint, direction)
    rows = {s.ctx_index[ctx]: s.row(row) for ctx, row in table.items()}
    return _table_text(joint, direction, alpha, rows, shape,
                       lambda ci, ti, v: values(s.contexts[ci], s.outcomes[ti], v))


def interaction_text(joint, table: InteractionTable, alpha=None) -> str:
    return table_text(joint, table.direction, alpha, table.values, _INTERACTIONS,
                      lambda c, o, i: (i,))


def reward_text(joint, alpha, rewards: RewardTable) -> str:
    """The rewards document of a table under zero terminal values."""
    return table_text(joint, rewards.direction, alpha, rewards.entries, _REWARDS,
                      lambda c, o, r: (r, 0.0))


class TestLoadJson:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="nope.json"):
            load_json(tmp_path / "nope.json")

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": [1, }', encoding="utf-8")
        with pytest.raises(SchemaError, match=r"line 1 column 11"):
            load_json(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"a": [1, 2]}', encoding="utf-8")
        assert load_json(path) == {"a": [1, 2]}


class TestJointDoc:
    def test_round_trip(self):
        j = joint_f3()
        back = joint_from_doc(joint_to_doc(j))
        assert back.names == j.names
        for cell, p in j.support():
            assert float(back.mass_of(cell)) == pytest.approx(float(p), abs=1e-15)

    def test_serialized_round_trip(self):
        doc = json.loads(dumps_report(joint_to_doc(joint_f3())))
        back = joint_from_doc(doc)
        assert float(back.prob({"X": "0", "Y": "0", "Z": "0"})) == 0.2

    def rejects(self, doc, match=None):
        with pytest.raises(SchemaError, match=match):
            joint_from_doc(doc)

    def base_doc(self):
        return {
            "variables": [{"name": "X", "alphabet": ["0", "1"]}],
            "mass": [
                {"assign": {"X": "0"}, "p": 0.5},
                {"assign": {"X": "1"}, "p": 0.5},
            ],
        }

    def test_rejections(self):
        self.rejects([], match="must be an object")
        self.rejects({"mass": []}, match="'variables'")
        doc = self.base_doc()
        doc["mass"][1]["assign"] = {"X": "0"}
        self.rejects(doc, match="duplicate assignment")
        doc = self.base_doc()
        doc["mass"][0]["p"] = -0.5
        self.rejects(doc, match="negative mass")
        doc = self.base_doc()
        doc["mass"][0]["p"] = 0.5 + 2e-9
        self.rejects(doc, match="off 1 by more than")
        doc = self.base_doc()
        doc["mass"][0]["p"] = True
        self.rejects(doc, match="finite number")
        doc = self.base_doc()
        doc["mass"][0]["assign"] = {"W": "0"}
        self.rejects(doc)
        doc = self.base_doc()
        doc["mass"][0]["assign"] = {"X": "7"}
        self.rejects(doc)

    def test_tolerates_tiny_sum_slack(self):
        doc = self.base_doc()
        doc["mass"][0]["p"] = 0.5 + 5e-10
        joint_from_doc(doc)


_LABELS = ("0", "1", "b", "\u00e9")
_SUBNORMAL = (5e-324, 1e-320, 2.5e-310)


def random_joint_doc(rng: random.Random) -> dict:
    """A joint document over 1-4 variables of 1-3 labels each. About a third of
    the cells are zero, each omitted or written as 0.0, -0.0 or 0; some masses are
    subnormal; the total is off 1 by up to 0.9e-9 in a third of the draws; a
    single cell that carries all the mass is written as the int 1. Each
    `assign` lists its keys in a random order, and the entries come in a random order."""
    names = rng.sample(["W", "X", "Y", "Z"], rng.randint(1, 4))
    variables = [{"name": n, "alphabet": rng.sample(_LABELS, rng.randint(1, 3))} for n in names]
    cells = list(itertools.product(*(v["alphabet"] for v in variables)))
    raw = [0.0 if rng.random() < 0.35 else rng.expovariate(1.0) for _ in cells]
    raw[rng.randrange(len(raw))] = rng.expovariate(1.0) + 0.1
    total = sum(raw)
    masses = [w / total for w in raw]
    for i in range(len(masses)):
        if masses[i] == 0.0 and rng.random() < 0.2:
            masses[i] = rng.choice(_SUBNORMAL)
    if rng.random() < 0.33:
        big = max(range(len(masses)), key=masses.__getitem__)
        masses[big] += rng.uniform(-0.9e-9, 0.9e-9)
    mass = []
    for cell, p in zip(cells, masses):
        if p == 0.0:
            p = rng.choice((None, 0.0, -0.0, 0))
            if p is None:
                continue
        elif p == 1.0 and rng.random() < 0.5:
            p = 1
        assign = list(zip(names, cell))
        rng.shuffle(assign)
        mass.append({"assign": dict(assign), "p": p})
    rng.shuffle(mass)
    return {"variables": variables, "mass": mass}


def _fault(rng: random.Random, doc: dict) -> str:
    """Inject one fault into a joint document; returns its name."""
    mass, names = doc["mass"], [v["name"] for v in doc["variables"]]
    at = rng.randrange(len(mass))
    entry = mass[at]
    assign = entry["assign"]
    kind = rng.choice((
        "non-dict entry", "missing p", "missing assign", "partial binding", "extra binding",
        "unknown label", "int label", "bool p", "str p", "nan p", "inf p", "negative p",
        "duplicate cell", "bad total", "bad p after bad label", "repeated name",
    ))
    if kind == "non-dict entry":
        mass[at] = rng.choice(([names[0], "0"], "X=0", None, 1.5))
    elif kind == "missing p":
        del entry["p"]
    elif kind == "missing assign":
        del entry["assign"]
    elif kind == "partial binding":
        del assign[rng.choice(names)]
    elif kind == "extra binding":
        assign["V"] = "0"
    elif kind == "unknown label":
        assign[rng.choice(names)] = "?"
    elif kind == "int label":
        assign[rng.choice(names)] = 0
    elif kind == "bad total":
        entry["p"] = float(entry["p"]) + rng.choice((-1.0, 1.0)) * rng.uniform(2e-9, 0.5)
        entry["p"] = abs(entry["p"])
    elif kind == "duplicate cell":  # half of them with the same mass, so the total holds
        keys = list(assign.items())
        rng.shuffle(keys)
        p = entry["p"] if rng.random() < 0.5 else rng.random()
        mass.insert(rng.randrange(len(mass) + 1), {"assign": dict(keys), "p": p})
    elif kind == "negative p":  # another entry takes up the difference, so the total holds
        p0 = float(entry["p"])
        p = p0 or rng.uniform(1e-3, 1.0)
        entry["p"] = -p
        others = [e for e in mass if e is not entry]
        if others:
            other = rng.choice(others)
            other["p"] = float(other["p"]) + p0 + p
    elif kind == "bad p after bad label":
        assign[rng.choice(names)] = "?"
        mass.insert(rng.randint(at + 1, len(mass)), {"assign": dict(assign), "p": "x"})
    elif kind == "repeated name":
        doc["variables"].append(dict(doc["variables"][0]))
    else:
        entry["p"] = {"bool p": True, "str p": "0.5", "nan p": math.nan, "inf p": math.inf}[kind]
    return kind


def _outcome(read, doc):
    """What a reader makes of a document: the nonzero cells, the denominator and
    the total, or the class and text of the error it raises."""
    try:
        return read(doc)
    except SoftTiltError as exc:
        return type(exc), str(exc)


def _library(doc):
    joint = joint_from_doc(doc)
    return joint.masses(), joint._den, joint.total()


class TestJointReaderMatchesReference:
    """`joint_from_doc` against the entry-by-entry reader `helpers.ref_joint_doc`.

    Each draw reads a `random_joint_doc` through JSON: the cells, the common
    denominator and the total must be equal. A document with every `p` a float
    must also read the same with the validating path (`_binding`) and the
    per-entry resolver (`JointTable._locate`) made to fail, so that the fast
    path, which sums label offsets, is the one tested. With one fault injected,
    both readers must raise the same error class with the same text.
    """

    @seed(0x10147)
    @settings(max_examples=400)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    def test_joint_reader_matches_reference(self, case, faulty):
        rng = random.Random(case)
        doc = random_joint_doc(rng)
        kind = _fault(rng, doc) if faulty else None
        doc = json.loads(json.dumps(doc))
        want = _outcome(ref_joint_doc, doc)
        assert _outcome(_library, doc) == want
        if kind is not None:
            assert isinstance(want[0], type) and issubclass(want[0], SchemaError), kind
        elif all(type(item["p"]) is float for item in doc["mass"]):
            with (mock.patch("softtilt.io._binding", side_effect=AssertionError("validating")),
                  mock.patch.object(JointTable, "_locate", side_effect=AssertionError("locate"))):
                assert _library(doc) == want


def _shuffled(rng: random.Random, obj: dict) -> dict:
    items = list(obj.items())
    rng.shuffle(items)
    return dict(items)


def _entry_fault(rng: random.Random, doc: dict, joint: JointTable) -> str:
    """Inject one fault into a binding of a reward or interaction document; returns its name."""
    groups = doc["direction_groups"]
    cond, target = groups["base"] + groups["observed"], groups["target"]
    entries = doc["entries"]
    entry = rng.choice(entries)
    key = rng.choice(("context", "outcome"))
    binding, own, other = entry[key], *((cond, target) if key == "context" else (target, cond))
    name = rng.choice(list(binding))
    kind = rng.choice((
        "unknown name", "unknown label", "int label", "null label", "list label",
        "list binding", "string binding", "empty binding", "extra variable",
        "missing variable", "binds the other group", "duplicate",
    ))
    if kind == "unknown name":  # in place of a name, or beside it
        binding["V"] = binding.pop(name) if rng.random() < 0.5 else "0"
    elif kind.endswith(" label"):
        binding[name] = {"unknown": "?", "int": 0, "null": None, "list": ["0"]}[kind.split()[0]]
    elif kind == "list binding":
        entry[key] = [[n, label] for n, label in binding.items()]
    elif kind == "string binding":
        entry[key] = ",".join(f"{n}={label}" for n, label in binding.items())
    elif kind == "empty binding":
        entry[key] = {}
    elif kind == "extra variable":
        extra = rng.choice([n for n in joint.names if n not in own])
        binding[extra] = rng.choice(joint.variable(extra).alphabet)
    elif kind == "missing variable":
        del binding[name]
    elif kind == "binds the other group":  # a context binding the target, or the converse
        swap = rng.choice(other)
        binding[swap] = rng.choice(joint.variable(swap).alphabet)
        del binding[name]
    else:  # the same cell again, its bindings' keys reordered
        copy = dict(entry, context=dict(reversed(list(entry["context"].items()))),
                    outcome=dict(reversed(list(entry["outcome"].items()))))
        entries.insert(rng.randint(0, len(entries)), copy)
    return kind


def _rows(doc, joint: JointTable, kind: str, fill_zero: bool):
    """`_read_rows` keyed as `helpers.ref_rows` keys its result."""
    table = _read_rows(doc, joint, kind, fill_zero)
    s = table.split
    rows = [(s.contexts[ci], {s.outcomes[ti]: v for ti, v in enumerate(row) if v is not None})
            for ci, row in table.rows.items()]
    terminals = table.terminals and {
        s.events[cell]: v for cell, v in enumerate(table.terminals) if v is not None
    }
    return table.alpha, table.direction, rows, terminals


def _ref_rows(doc, joint: JointTable, kind: str, fill_zero: bool):
    alpha, direction, rows, terminals = ref_rows(doc, joint, kind, fill_zero)
    return alpha, direction, list(rows.items()), terminals


def _identified(rng: random.Random) -> tuple[JointTable, dict]:
    """A `sparse_random_joint` as the CLI reads it, and `identify`'s reward and
    interaction documents on it in a random direction, by reader kind, with
    their entries, entry keys and binding keys shuffled."""
    joint_doc = joint_to_doc(sparse_random_joint(rng, min_vars=2))
    joint = joint_from_doc(joint_doc)
    target, base, observed = random_direction(rng, joint.names)
    with tempfile.TemporaryDirectory() as tmp:
        j, prefix = Path(tmp) / "joint.json", Path(tmp) / "fwd"
        j.write_text(json.dumps(joint_doc), encoding="utf-8")
        argv = ["identify", j, "--direction", tag(target, base + observed), "--out", prefix]
        assert main([str(a) for a in argv]) == 0
        docs = {kind: json.loads(Path(f"{prefix}.{part}.json").read_text(encoding="utf-8"))
                for kind, part in (("reward", "rewards"), ("interaction", "interaction"))}
    for doc in docs.values():
        doc["entries"] = [_shuffled(rng, dict(entry, context=_shuffled(rng, entry["context"]),
                                              outcome=_shuffled(rng, entry["outcome"])))
                          for entry in doc["entries"]]
        rng.shuffle(doc["entries"])
    return joint, docs


class TestRowReaderMatchesReference:
    """`io._read_rows` against the entry-by-entry reader `helpers.ref_rows`.

    Each draw reads both files of `_identified` (a joint with zero cells, so that
    a rewards file misses the posterior-null ones and reads only with
    fill_zero): the rows in the order first named and the terminals must be
    equal, or both readers must raise the same error class with the same text.
    With one binding fault injected, both must raise the same SchemaError. Read
    without fault, the same documents must read the same with the validating
    path (`io._indices`) made to fail, so that the label-offset path is the one
    tested.
    """

    @seed(0x20E5)
    @settings(max_examples=150)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_row_reader_matches_reference(self, case):
        rng = random.Random(case)
        joint, docs = _identified(rng)
        for kind, doc in docs.items():
            fault = _entry_fault(rng, doc, joint) if rng.random() < 0.5 else None
            doc, fill_zero = json.loads(json.dumps(doc)), rng.random() < 0.5
            want = _outcome(lambda d: _ref_rows(d, joint, kind, fill_zero), doc)
            assert _outcome(lambda d: _rows(d, joint, kind, fill_zero), doc) == want, fault
            if fault is not None:
                assert isinstance(want[0], type) and issubclass(want[0], SchemaError), fault

    def test_offset_path_is_taken(self):
        rng = random.Random(0x0FF5E7)
        for _ in range(40):
            joint, docs = _identified(rng)
            for kind, doc in docs.items():
                want = _outcome(lambda d: _ref_rows(d, joint, kind, True), doc)
                with mock.patch("softtilt.io._indices", side_effect=AssertionError("validating")):
                    assert _outcome(lambda d: _rows(d, joint, kind, True), doc) == want


class TestDirectionParsing:
    def test_single_letter_tag(self):
        d = direction_from_tag("x_given_yz", ("X", "Y", "Z"))
        assert d == FWD

    def test_last_conditioning_name_is_observed(self):
        d = direction_from_tag("z_given_yx", ("X", "Y", "Z"))
        assert d.target == ("Z",) and d.base == ("Y",) and d.observed == ("X",)

    def test_single_conditioning_name_means_empty_base(self):
        d = direction_from_tag("x_given_y", ("X", "Y", "Z"))
        assert d.base == () and d.observed == ("Y",)

    def test_multi_character_names(self):
        d = direction_from_tag("rate_given_loadtemp", ("Rate", "Load", "Temp"))
        assert d.target == ("Rate",)
        assert d.base == ("Load",) and d.observed == ("Temp",)

    def test_segmentation_backtracks(self):
        assert segment_names("abb", ("AB", "A", "BB")) == ("A", "BB")

    def test_segmentation_prefers_longest(self):
        assert segment_names("abc", ("A", "AB", "C")) == ("AB", "C")

    def test_segmentation_rejects_ambiguous_tag(self):
        with pytest.raises(SchemaError, match="ambiguous.*'XY'.*'X', 'Y'"):
            segment_names("xy", ("X", "Y", "XY"))

    def test_unsegmentable_long_tag_fails_fast(self):
        # backtracking would try about 1.8**200 splits of the a-run before the z
        start = time.perf_counter()
        with pytest.raises(SchemaError, match="cannot segment"):
            segment_names("a" * 199 + "z", ("A", "AA", "AAA"))
        assert time.perf_counter() - start < 1.0

    def test_unsegmentable_tag(self):
        with pytest.raises(SchemaError, match="cannot segment"):
            direction_from_tag("x_given_yw", ("X", "Y", "Z"))

    def test_case_insensitive_collision(self):
        with pytest.raises(SchemaError, match="collide"):
            segment_names("x", ("x", "X"))

    def test_bad_tags(self):
        for tag in ("xyz", "x_given_y_given_z", "_given_x", "x_given_", "x_given_xy"):
            with pytest.raises(SchemaError):
                direction_from_tag(tag, ("X", "Y", "Z"))

    def test_fields_round_trip(self):
        j = joint_f3()
        doc = direction_fields(FWD)
        assert direction_from_doc(doc, j) == FWD
        assert doc["direction"] == "x_given_yz"

    def test_groups_win_over_tag(self):
        j = joint_f3()
        doc = direction_fields(Direction(("Z",), ("Y",), ("X",)))
        doc["direction"] = "x_given_yz"
        assert direction_from_doc(doc, j).target == ("Z",)

    def test_groups_with_unknown_variable(self):
        j = joint_f3()
        doc = {"direction_groups": {"target": ["W"], "base": ["Y"], "observed": ["Z"]}}
        with pytest.raises(SchemaError):
            direction_from_doc(doc, j)


class TestRewardDoc:
    def calibrated_doc(self):
        j = joint_f3()
        calib = calibrate_rewards(j, FWD, EventValueFunction.zero(), alpha=2.0)
        return j, calib, json.loads(reward_text(j, 2.0, calib.rewards))

    def test_round_trip(self):
        j, calib, doc = self.calibrated_doc()
        loaded = reward_from_doc(doc, j)
        assert loaded.alpha == 2.0
        assert loaded.direction == FWD
        assert loaded.rewards.entries == calib.rewards.entries
        for ctx in calib.rewards.contexts():
            for outcome in calib.rewards.outcomes_for(ctx):
                assert loaded.terminals.value(outcome.union(ctx)) == 0.0

    def test_serialized_round_trip_is_exact(self):
        j, calib, doc = self.calibrated_doc()
        loaded = reward_from_doc(doc, j)
        assert loaded.rewards.entries == calib.rewards.entries
        # the text is what the generic renderer makes of the parsed document
        assert dumps_report(doc) == reward_text(j, 2.0, calib.rewards)

    def test_missing_entry_suggests_fill_zero(self):
        j, _, doc = self.calibrated_doc()
        doc["entries"] = doc["entries"][1:]
        with pytest.raises(CoverageMismatch, match="fill-zero"):
            reward_from_doc(doc, j)
        loaded = reward_from_doc(doc, j, fill_zero=True)
        # the dropped entry was context (Y=0, Z=0), outcome X=0
        ctx = loaded.rewards.contexts()[0]
        assert loaded.rewards.entries[ctx][loaded.rewards.outcomes_for(ctx)[0]] == 0.0

    def test_rejections(self):
        j, _, doc = self.calibrated_doc()
        bad = dict(doc)
        bad["alpha"] = 0.0
        with pytest.raises(SchemaError, match="alpha"):
            reward_from_doc(bad, j)
        bad = dict(doc)
        bad["entries"] = doc["entries"] + [doc["entries"][0]]
        with pytest.raises(SchemaError, match="duplicate"):
            reward_from_doc(bad, j)
        bad = dict(doc)
        bad["entries"] = [dict(doc["entries"][0], context={"Y": "0"})] + doc["entries"][1:]
        with pytest.raises(SchemaError, match="context"):
            reward_from_doc(bad, j)
        bad = dict(doc)
        bad["entries"] = [dict(doc["entries"][0], outcome={"Z": "0"})] + doc["entries"][1:]
        with pytest.raises(SchemaError, match="outcome"):
            reward_from_doc(bad, j)
        bad = dict(doc)
        bad["entries"] = [dict(doc["entries"][0], r="big")] + doc["entries"][1:]
        with pytest.raises(SchemaError, match="'r'"):
            reward_from_doc(bad, j)

    def test_zero_mass_context_rows_load_without_coverage_check(self):
        j = sparse_joint()
        doc = direction_fields(FWD)
        doc["alpha"] = 1.0
        doc["entries"] = [
            {"context": {"Y": "1", "Z": "0"}, "outcome": {"X": "0"}, "r": 0.0, "V": 0.0}
        ]
        loaded = reward_from_doc(doc, j)
        assert len(loaded.rewards.entries) == 1


class TestInteractionDoc:
    def test_round_trip_with_null_cell(self):
        j = sparse_joint()
        table = identify_interaction(j, FWD)
        doc = json.loads(interaction_text(j, table, alpha=1.5))
        alpha, back = interaction_from_doc(doc, j)
        assert alpha == 1.5
        assert back.values == table.values
        null = [v for row in back.values.values() for v in row.values() if v == -math.inf]
        assert null

    def test_alpha_optional(self):
        j = joint_f3()
        doc = json.loads(interaction_text(j, identify_interaction(j, FWD)))
        assert "alpha" not in doc
        alpha, _ = interaction_from_doc(doc, j)
        assert alpha is None

    def test_only_minus_inf_string_allowed(self):
        j = joint_f3()
        doc = json.loads(interaction_text(j, identify_interaction(j, FWD)))
        doc["entries"][0]["i"] = "inf"
        with pytest.raises(SchemaError, match="'i'"):
            interaction_from_doc(doc, j)


class TestValuesDoc:
    def test_round_trip(self):
        values = EventValueFunction(
            {Assignment({"X": "0", "Y": "1"}): 1.5}, default=0.25
        )
        back = values_from_doc(values_to_doc(values))
        assert back == values

    def test_duplicate_event(self):
        doc = {
            "entries": [
                {"event": {"X": "0"}, "v": 1.0},
                {"event": {"X": "0"}, "v": 2.0},
            ]
        }
        with pytest.raises(SchemaError, match="duplicate"):
            values_from_doc(doc)

    def test_joint_validates_labels(self):
        doc = {"entries": [{"event": {"X": "9"}, "v": 1.0}]}
        with pytest.raises(SchemaError, match="alphabet"):
            values_from_doc(doc, joint_f3())

    def test_bad_value(self):
        with pytest.raises(SchemaError, match="'v'"):
            values_from_doc({"entries": [{"event": {"X": "0"}, "v": "x"}]})


class TestBaselineDoc:
    def test_entries_and_default(self):
        doc = {
            "entries": [{"context": {"Y": "0", "Z": "1"}, "c": 2.5}],
            "default": -1.0,
        }
        shift = baseline_from_doc(doc, joint_f3())
        assert shift.value({"Z": "1", "Y": "0"}) == 2.5
        assert shift.value({"Y": "1", "Z": "1"}) == -1.0

    def test_default_only(self):
        shift = baseline_from_doc({"default": 3.0})
        assert shift.value({"Y": "0", "Z": "0"}) == 3.0

    def test_duplicate_context(self):
        doc = {
            "entries": [
                {"context": {"Y": "0"}, "c": 1.0},
                {"context": {"Y": "0"}, "c": 2.0},
            ]
        }
        with pytest.raises(SchemaError, match="duplicate"):
            baseline_from_doc(doc)

    def test_bad_shift(self):
        with pytest.raises(SchemaError, match="'c'"):
            baseline_from_doc({"entries": [{"context": {"Y": "0"}, "c": None}]})


class TestFamilyDoc:
    def linear_doc(self, slope):
        return {
            "prior": {"kind": "geometric", "q": 0.5},
            "payoff": {"kind": "linear", "slope": slope},
            "bounds": {"tail": "geometric", "payoff": "linear"},
        }

    def test_linear_matches_direct_construction(self):
        family = family_from_doc(self.linear_doc(math.log(1.5)))
        logz, cert = log_normalizer_truncated(family, 1e-12)
        assert cert.status.value == "finite"
        assert logz == pytest.approx(math.log(2.0), abs=1e-9)

    def test_constant_payoff(self):
        doc = {
            "prior": {"kind": "geometric", "q": 0.25},
            "payoff": {"kind": "constant", "value": -2.0},
            "bounds": {"tail": "geometric", "payoff": "constant"},
        }
        logz, _ = log_normalizer_truncated(family_from_doc(doc), 1e-12)
        assert logz == pytest.approx(-2.0, abs=1e-12)

    def test_rejections(self):
        doc = self.linear_doc(0.1)
        doc["prior"]["kind"] = "poisson"
        with pytest.raises(SchemaError, match="geometric"):
            family_from_doc(doc)
        doc = self.linear_doc(0.1)
        doc["prior"]["q"] = 1.25
        with pytest.raises(SchemaError, match="'prior.q'"):
            family_from_doc(doc)
        doc = self.linear_doc(0.1)
        doc["payoff"]["kind"] = "quadratic"
        with pytest.raises(SchemaError):
            family_from_doc(doc)
        doc = self.linear_doc(0.1)
        doc["bounds"]["payoff"] = "constant"
        with pytest.raises(SchemaError, match="bounds.payoff"):
            family_from_doc(doc)
        doc = self.linear_doc(0.1)
        del doc["bounds"]
        with pytest.raises(SchemaError, match="'bounds'"):
            family_from_doc(doc)
        doc = self.linear_doc(0.1)
        del doc["payoff"]["slope"]
        with pytest.raises(SchemaError, match="slope"):
            family_from_doc(doc)


class TestRendering:
    def test_golden_document(self):
        doc = {
            "b": [1, 2.5, "x"],
            "a": {"nested": True, "z": None},
            "c": 0.1,
        }
        expected = (
            "{\n"
            '  "a": {\n'
            '    "nested": true,\n'
            '    "z": null\n'
            "  },\n"
            '  "b": [\n'
            "    1,\n"
            "    2.5,\n"
            '    "x"\n'
            "  ],\n"
            '  "c": 0.10000000000000001\n'
            "}"
        )
        assert dumps_report(doc) == expected

    def test_insertion_order_is_irrelevant(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert dumps_report(a) == dumps_report(b)

    def test_floats_round_trip_through_17_digits(self, rng):
        values = [rng.uniform(-1e6, 1e6) for _ in range(200)] + [0.1, 1 / 3, 1e-300]
        rendered = dumps_report({"v": values})
        assert json.loads(rendered)["v"] == values

    def test_integral_floats_render_bare(self):
        assert format_float(1.0) == "1"
        assert dumps_report({"alpha": 1.0}) == '{\n  "alpha": 1\n}'

    def test_nonfinite_quoted(self):
        assert format_float(math.nan) == '"nan"'
        assert format_float(math.inf) == '"inf"'
        assert format_float(-math.inf) == '"-inf"'
        assert dumps_report([math.inf]) == '[\n  "inf"\n]'

    def test_bool_rendered_before_int(self):
        assert dumps_report({"flag": True}) == '{\n  "flag": true\n}'

    def test_empty_containers(self):
        assert dumps_report({}) == "{}"
        assert dumps_report([]) == "[]"

    def test_non_string_keys_rejected(self):
        with pytest.raises(SoftTiltError, match="keys must be strings"):
            dumps_report({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(SoftTiltError, match="cannot serialize"):
            dumps_report({"s": {1, 2}})


# names and labels holding what JSON escapes: quotes, backslashes, control
# and non-ASCII characters (one outside the BMP), and braces
_TEXT = st.text(
    st.sampled_from('aZ"\\{}\x00\x1f\x7f\u00e9\u2192\U0001f600 '), min_size=1, max_size=3
)
_VALUES = st.one_of(
    st.sampled_from((
        -0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308,
        0.12345678901234568, -9.8765432109876543e-5, 1.0, 3.0,
    )),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _tables(draw, values):
    """A direction over 2-4 variables, some of its groups multi-variable, and a
    table with a random subset of its (context, outcome) cells, maybe none."""
    names = draw(st.lists(_TEXT, min_size=2, max_size=4, unique=True))
    n_target = draw(st.integers(1, len(names) - 1))
    n_observed = draw(st.integers(1, len(names) - n_target))
    direction = Direction(
        target=tuple(names[:n_target]),
        base=tuple(names[n_target + n_observed:]),
        observed=tuple(names[n_target:n_target + n_observed]),
    )
    specs = {
        name: VariableSpec(name, tuple(draw(st.lists(_TEXT, min_size=1, max_size=2, unique=True))))
        for name in names
    }
    outcomes = list(iter_group_assignments(specs[n] for n in direction.target))
    rows = {}
    for ctx in iter_group_assignments(specs[n] for n in direction.conditioning):
        if draw(st.booleans()):
            rows[ctx] = {o: draw(values) for o in outcomes if draw(st.booleans())}
    return direction, rows, tuple(specs.values())


def uniform_joint(specs) -> JointTable:
    cells = list(iter_group_assignments(specs))
    return JointTable(specs, [(cell, Fraction(1, len(cells))) for cell in cells])


class TestTableWriter:
    """The row writer of reward and interaction files against `dumps_report` of a plain dict."""

    @seed(0x7AB1E)
    @settings(max_examples=80)
    @given(
        table=_tables(st.one_of(_VALUES, st.just(-math.inf))), alpha=st.one_of(st.none(), _VALUES)
    )
    def test_interaction_text_matches_reference(self, table, alpha):
        direction, rows, specs = table
        want = ref_table_doc(direction, alpha, rows, lambda ctx, outcome, i: {
            "i": "-inf" if i == -math.inf else i
        })
        text = interaction_text(uniform_joint(specs), InteractionTable(direction, rows), alpha)
        assert text == dumps_report(want)

    @seed(0x7AB1F)
    @settings(max_examples=80)
    @given(table=_tables(_VALUES), alpha=_VALUES, data=st.data())
    def test_reward_text_matches_reference(self, table, alpha, data):
        direction, rows, specs = table
        joint = uniform_joint(specs)
        # each cell's terminal value, from the function's entries or its default
        default = data.draw(_VALUES)
        terminal = {
            (ctx, outcome): data.draw(st.one_of(st.none(), _VALUES))
            for ctx, row in rows.items() for outcome in row
        }
        terminals = EventValueFunction(
            {outcome.union(ctx): v for (ctx, outcome), v in terminal.items() if v is not None},
            default=default,
        )
        want = ref_table_doc(direction, alpha, rows, lambda ctx, outcome, r: {
            "r": r, "V": default if terminal[ctx, outcome] is None else terminal[ctx, outcome]
        })
        # V read at each entry's full-group cell index, as `identify` reads it
        s = _split(joint, direction)
        terminal = _lookup(s, terminals)
        text = _table_text(joint, direction, alpha,
                           {s.ctx_index[ctx]: s.row(row) for ctx, row in rows.items()}, _REWARDS,
                           lambda ci, ti, r: (r, terminal(s.ctx_full[ci] + s.out_full[ti])))
        assert text == dumps_report(want)
