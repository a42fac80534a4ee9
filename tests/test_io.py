"""Wire formats: loaders reject malformed documents, writer is deterministic."""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

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
from softtilt.io import (
    baseline_from_doc,
    direction_fields,
    direction_from_doc,
    direction_from_tag,
    dumps_report,
    family_from_doc,
    format_float,
    interaction_from_doc,
    interaction_to_text,
    joint_from_doc,
    joint_to_doc,
    load_json,
    reward_from_doc,
    reward_to_text,
    segment_names,
    values_from_doc,
    values_to_doc,
)
from helpers import ref_table_doc, sparse_joint

FWD = Direction(target=("X",), base=("Y",), observed=("Z",))


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
        text = reward_to_text(2.0, calib.rewards, EventValueFunction.zero(), j)
        return j, calib, json.loads(text)

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
        text = reward_to_text(2.0, calib.rewards, EventValueFunction.zero(), j)
        assert dumps_report(doc) == text

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
        doc = json.loads(interaction_to_text(table, alpha=1.5))
        alpha, back = interaction_from_doc(doc, j)
        assert alpha == 1.5
        assert back.values == table.values
        null = [v for row in back.values.values() for v in row.values() if v == -math.inf]
        assert null

    def test_alpha_optional(self):
        j = joint_f3()
        doc = json.loads(interaction_to_text(identify_interaction(j, FWD)))
        assert "alpha" not in doc
        alpha, _ = interaction_from_doc(doc, j)
        assert alpha is None

    def test_only_minus_inf_string_allowed(self):
        j = joint_f3()
        doc = json.loads(interaction_to_text(identify_interaction(j, FWD)))
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


class TestTableWriter:
    """The reward and interaction writers against `dumps_report` of a plain dict."""

    @seed(0x7AB1E)
    @settings(max_examples=80)
    @given(
        table=_tables(st.one_of(_VALUES, st.just(-math.inf))), alpha=st.one_of(st.none(), _VALUES)
    )
    def test_interaction_text_matches_reference(self, table, alpha):
        direction, rows, _ = table
        want = ref_table_doc(direction, alpha, rows, lambda ctx, outcome, i: {
            "i": "-inf" if i == -math.inf else i
        })
        assert interaction_to_text(InteractionTable(direction, rows), alpha) == dumps_report(want)

    @seed(0x7AB1F)
    @settings(max_examples=80)
    @given(table=_tables(_VALUES), alpha=_VALUES, data=st.data())
    def test_reward_text_matches_reference(self, table, alpha, data):
        direction, rows, specs = table
        cells = list(iter_group_assignments(specs))
        joint = JointTable(specs, [(cell, Fraction(1, len(cells))) for cell in cells])
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
        text = reward_to_text(alpha, RewardTable(direction, rows), terminals, joint)
        assert text == dumps_report(want)
