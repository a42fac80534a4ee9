"""One value rule: each JSON reader rejects a number exactly when the library
constructor that takes the same field does.

A real number is an int that is not a bool, a float, or a `numbers.Rational`;
one beyond the double range reads as infinite, so a finiteness check rejects
it. Any exception other than `ValidationError` fails these properties.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from softtilt import (
    Assignment,
    CountableFamily,
    EventValueFunction,
    GaugeShift,
    JointTable,
    SolverConfig,
    ValidationError,
    VariableSpec,
    calibrate_rewards,
    default_direction,
    joint_f3,
    log_normalizer_truncated,
)
from softtilt.io import (
    JOINT_SUM_TOL,
    baseline_from_doc,
    direction_fields,
    joint_from_doc,
    reward_from_doc,
    values_from_doc,
)

HUGE = st.integers(min_value=2**1024, max_value=2**1100)

VALUES = st.one_of(
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    HUGE,
    HUGE.map(lambda n: -n),
    HUGE.map(Fraction),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    st.floats(),
    st.floats(min_value=0.0, max_value=1.0),
    st.fractions(),
    st.fractions(min_value=0, max_value=1),
    st.sampled_from(["1.5", "nan", "-inf", ""]),
    st.text(max_size=3),
    st.none(),
)
EDGES = (True, False, 10**400, -(10**400), Fraction(10**400), math.nan, math.inf, -math.inf,
         -0.0, Fraction(1, 3), "1.5", None)


def rejects(build) -> bool:
    try:
        build()
    except ValidationError:
        return True
    return False


def edge_examples(test):
    for value in EDGES:
        test = example(value)(test)
    return test


BIT = (VariableSpec("X", ("0", "1")),)


@seed(0x1DE7)
@settings(max_examples=300)
@given(VALUES)
@edge_examples
def test_joint_mass(value):
    # the other cell takes the rest of a number in [0, 1], so that only the
    # value rule can reject the table
    in_range = isinstance(value, (int, float, Fraction)) and 0 <= value <= 1
    rest = 1 - value if in_range else 0.5
    doc = {
        "variables": [{"name": "X", "alphabet": ["0", "1"]}],
        "mass": [{"assign": {"X": "0"}, "p": value}, {"assign": {"X": "1"}, "p": rest}],
    }
    pairs = [({"X": "0"}, value), ({"X": "1"}, rest)]
    assert rejects(lambda: joint_from_doc(doc)) == rejects(
        lambda: JointTable(BIT, pairs, tol_norm=JOINT_SUM_TOL))


@seed(0xA1FA)
@settings(max_examples=300)
@given(VALUES)
@edge_examples
def test_alpha(value):
    joint = joint_f3()
    direction = default_direction(joint)
    doc = {**direction_fields(direction), "alpha": value, "entries": []}
    config = rejects(lambda: SolverConfig(alpha=value))
    assert rejects(lambda: reward_from_doc(doc, joint)) == config
    if config:  # calibration may also reject an alpha at which a reward overflows
        assert rejects(lambda: calibrate_rewards(joint, direction, EventValueFunction.zero(), value))


@seed(0x7E4A)
@settings(max_examples=300)
@given(VALUES)
@edge_examples
def test_terminal_value(value):
    event = {"X": "0", "Y": "1"}
    assert rejects(lambda: values_from_doc({"entries": [{"event": event, "v": value}]})) == rejects(
        lambda: EventValueFunction([(event, value)]))
    assert rejects(lambda: values_from_doc({"entries": [], "default": value})) == rejects(
        lambda: EventValueFunction((), default=value))


@seed(0xBA5E)
@settings(max_examples=300)
@given(VALUES)
@edge_examples
def test_baseline_shift(value):
    context = {"Y": "0", "Z": "1"}
    assert rejects(lambda: baseline_from_doc({"entries": [{"context": context, "c": value}]})) == (
        rejects(lambda: GaugeShift({Assignment(context): value})))
    assert rejects(lambda: baseline_from_doc({"default": value})) == rejects(
        lambda: GaugeShift(default=value))


@pytest.mark.parametrize("build", [
    lambda: SolverConfig(alpha=10**400),
    lambda: GaugeShift(default=10**400),
    lambda: calibrate_rewards(joint_f3(), default_direction(joint_f3()),
                              EventValueFunction.zero(), alpha=10**400),
    lambda: SolverConfig(alpha=True),
    lambda: EventValueFunction([({"X": "0"}, "1.5")]),
    lambda: JointTable(BIT, [({"X": "0"}, Fraction(10**400)), ({"X": "1"}, 0)]),
    lambda: log_normalizer_truncated(CountableFamily.geometric_linear(0.5, 0.1), "1e-12"),
    lambda: log_normalizer_truncated(CountableFamily.geometric_linear(0.5, 0.1), 10**400),
    lambda: log_normalizer_truncated(CountableFamily.geometric_linear(0.5, 0.1), True),
])
def test_library_rejects_what_the_readers_reject(build):
    with pytest.raises(ValidationError):
        build()


def test_fractions_are_read_as_their_doubles():
    assert EventValueFunction((), default=Fraction(1, 3)).default == 1 / 3
    assert GaugeShift(default=Fraction(-1, 3)).default == -1 / 3
    family = CountableFamily.geometric_linear(Fraction(1, 2), Fraction(1, 10))
    assert log_normalizer_truncated(family, Fraction(1, 10**12)) == log_normalizer_truncated(
        CountableFamily.geometric_linear(0.5, 0.1), 1e-12)
