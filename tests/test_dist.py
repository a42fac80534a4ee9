"""Joint tables, marginals, conditionals, and interaction values."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from softtilt import (
    Assignment,
    DistVector,
    JointTable,
    UndefinedPMI,
    ValidationError,
    VariableSpec,
    ZeroMassContext,
    conditional,
    iter_group_assignments,
    joint_f1,
    joint_f3,
    marginal,
    pmi,
    total_variation,
)
from helpers import (
    overflow_joint,
    random_joint,
    ref_conditional,
    ref_event_mass,
    ref_marginal,
    ref_pmi,
    sparse_joint,
    sparse_random_joint,
)

B = ("0", "1")


class TestVariableSpec:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            VariableSpec("X", ("a", "a"))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValidationError):
            VariableSpec("X", ())


class TestAssignment:
    def test_order_insensitive(self):
        a = Assignment({"Y": "1", "X": "0"})
        b = Assignment([("X", "0"), ("Y", "1")])
        assert a == b
        assert hash(a) == hash(b)
        assert a.items_sorted == (("X", "0"), ("Y", "1"))

    def test_union_conflict(self):
        a = Assignment({"X": "0"})
        with pytest.raises(ValidationError):
            a.union({"X": "1"})
        assert a.union({"X": "0", "Y": "1"}) == Assignment({"X": "0", "Y": "1"})

    def test_restrict(self):
        a = Assignment({"X": "0", "Y": "1", "Z": "0"})
        assert a.restrict(["Y"]) == Assignment({"Y": "1"})
        assert a.restrict([]) == Assignment({})

    @given(st.permutations([("X", "0"), ("Y", "1"), ("Z", "2"), ("W", "3")]))
    def test_any_insertion_order_is_canonical(self, items):
        assert Assignment(items) == Assignment(sorted(items))


class TestJointTable:
    def test_rejects_bad_total(self):
        specs = (VariableSpec("X", B),)
        with pytest.raises(ValidationError):
            JointTable(specs, {Assignment({"X": "0"}): Fraction(1, 2)})

    def test_rejects_negative(self):
        specs = (VariableSpec("X", B),)
        with pytest.raises(ValidationError):
            JointTable(
                specs,
                {
                    Assignment({"X": "0"}): Fraction(3, 2),
                    Assignment({"X": "1"}): Fraction(-1, 2),
                },
            )

    def test_rejects_duplicates(self):
        specs = (VariableSpec("X", B),)
        pairs = [
            (Assignment({"X": "0"}), Fraction(1, 2)),
            (Assignment({"X": "0"}), Fraction(1, 2)),
        ]
        with pytest.raises(ValidationError):
            JointTable(specs, pairs)

    def test_rejects_unknown_variable_and_label(self):
        specs = (VariableSpec("X", B),)
        with pytest.raises(ValidationError):
            JointTable(specs, {Assignment({"Q": "0"}): Fraction(1)})
        with pytest.raises(ValidationError):
            JointTable(specs, {Assignment({"X": "7"}): Fraction(1)})

    def test_partial_cells_rejected(self):
        specs = (VariableSpec("X", B), VariableSpec("Y", B))
        with pytest.raises(ValidationError):
            JointTable(specs, {Assignment({"X": "0"}): Fraction(1)})

    def test_event_mass_and_prob(self):
        j = joint_f3()
        assert j.event_mass({"Y": "0"}) == Fraction(1, 2)
        assert j.event_mass({"Y": "0", "Z": "0"}) == Fraction(1, 4)
        assert j.event_mass({}) == 1
        assert j.prob({"X": "0", "Y": "0", "Z": "0"}) == 0.2
        assert j.mass_of({"X": "0", "Y": "0", "Z": "0"}) == Fraction(1, 5)

    def test_zero_cells_dropped_from_support(self):
        j = sparse_joint()
        assert len(j.support()) == 5
        assert j.event_mass({"Y": "1", "Z": "0"}) == 0

    @pytest.mark.parametrize("key", [{"X": "0"}, Assignment({"X": "0"})])
    def test_rejects_bool_masses(self, key):
        # bool is an int, so a Rational; a mass of True is not a number of the table's kind
        specs = [VariableSpec("X", B)]
        with pytest.raises(ValidationError, match="^mass must be a real number, got True$"):
            JointTable(specs, [(key, True), ({"X": "1"}, False)])
        with pytest.raises(ValidationError, match="^mass must be a real number, got False$"):
            JointTable(specs, [({"X": "0"}, 1.0), ({"X": "1"}, False)])


# labels that need JSON escapes, listed out of sorted order in their alphabets
_LABELS = ("z", "0", 'a"b', "c\\d", "\u00e9", "{x}", "\x00", "\U0001f600", "A", "10", "9")


class TestCanonicalOrder:
    """`JointTable._order`, the one rule for canonical cell order, against sorting a
    group's assignments by `items_sorted`."""

    @seed(0x0DE5)
    @settings(max_examples=120)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_items_sorted(self, case):
        rng = random.Random(case)
        names = rng.sample(["B", "a", "C\u00e9", 'D"', "A", "b"], rng.randint(1, 4))
        specs = [VariableSpec(n, tuple(rng.sample(_LABELS, rng.randint(1, 4)))) for n in names]
        cells = list(iter_group_assignments(specs))
        j = JointTable(specs, [(c, Fraction(1, len(cells))) for c in cells])
        group = tuple(sorted(rng.sample(range(len(specs)), rng.randint(1, len(specs)))))
        grid = list(iter_group_assignments(j.variables[v] for v in group))
        assert j._order(group) == sorted(range(len(grid)), key=lambda i: grid[i].items_sorted)


class TestMarginal:
    def test_f1_single_variable_uniform(self):
        m = marginal(joint_f1(), ["X"])
        assert m.masses() == {
            Assignment({"X": "0"}): Fraction(1, 2),
            Assignment({"X": "1"}): Fraction(1, 2),
        }

    def test_f3_pair_marginal_quarter_cells(self):
        # summing the two z-cells per (x, y) by hand: 0.2 + 0.05 = 0.25
        m = marginal(joint_f3(), ["X", "Y"])
        assert all(p == Fraction(1, 4) for _, p in m.support())

    def test_marginal_is_exactly_idempotent(self, rng):
        for _ in range(25):
            j = random_joint(rng)
            two_step = marginal(marginal(j, ["X", "Y"]), ["X"])
            one_step = marginal(j, ["X"])
            assert two_step.masses() == one_step.masses()

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_marginal_idempotence_fuzzed(self, seed):
        j = random_joint(random.Random(seed))
        assert marginal(marginal(j, ["Y", "Z"]), ["Z"]).masses() == marginal(j, ["Z"]).masses()

    def test_marginal_total_preserved(self, rng):
        j = random_joint(rng)
        assert marginal(j, ["Y"]).total() == 1


class TestConditional:
    def test_f1_independent(self):
        d = conditional(joint_f1(), ["X"], {"Y": "0", "Z": "0"})
        assert d.probs == (0.5, 0.5)

    def test_f3_noisy_copy_slice(self):
        # renormalizing the (. , 0, 0) slice by hand: 0.2/0.25 and 0.05/0.25
        d = conditional(joint_f3(), ["X"], {"Y": "0", "Z": "0"})
        assert d.probs == (0.8, 0.2)

    def test_zero_mass_context_raises(self):
        with pytest.raises(ZeroMassContext):
            conditional(sparse_joint(), ["X"], {"Y": "1", "Z": "0"})

    def test_overlapping_target_rejected(self):
        with pytest.raises(ValidationError):
            conditional(joint_f3(), ["X"], {"X": "0", "Y": "0"})

    def test_sums_out_unmentioned_variables(self):
        d = conditional(joint_f3(), ["X"], {"Y": "0"})
        assert d.probs == (0.5, 0.5)


class TestPMI:
    def test_f1_identically_zero(self):
        j = joint_f1()
        for x in B:
            for z in B:
                for y in B:
                    assert pmi(j, {"X": x}, {"Z": z}, {"Y": y}) == 0.0

    def test_f3_oracle_values(self):
        # enumeration oracle: P(x|y,z)=0.8, P(x|y)=0.5 -> ratio 1.6; and 0.4
        j = joint_f3()
        assert pmi(j, {"X": "0"}, {"Z": "0"}, {"Y": "0"}) == math.log(1.6)
        assert pmi(j, {"X": "1"}, {"Z": "0"}, {"Y": "0"}) == math.log(0.4)

    def test_symmetry_is_bit_exact(self, rng):
        for _ in range(20):
            j = random_joint(rng)
            for cell in iter_group_assignments(j.variables):
                x = cell.restrict(["X"])
                z = cell.restrict(["Z"])
                y = cell.restrict(["Y"])
                assert pmi(j, x, z, y) == pmi(j, z, x, y)

    def test_zero_context_raises(self):
        j = sparse_joint()
        with pytest.raises(ZeroMassContext):
            pmi(j, {"X": "0"}, {"Z": "0"}, {"Y": "1"})

    def test_undefined_when_prior_cell_empty(self):
        specs = (VariableSpec("X", B), VariableSpec("Y", B), VariableSpec("Z", B))
        mass = {
            Assignment({"X": "0", "Y": "0", "Z": "0"}): Fraction(1, 2),
            Assignment({"X": "0", "Y": "0", "Z": "1"}): Fraction(1, 4),
            Assignment({"X": "1", "Y": "1", "Z": "0"}): Fraction(1, 4),
        }
        j = JointTable(specs, mass)
        with pytest.raises(UndefinedPMI):
            pmi(j, {"X": "1"}, {"Z": "0"}, {"Y": "0"})

    def test_posterior_null_is_minus_inf(self):
        j = sparse_joint()
        assert pmi(j, {"X": "1"}, {"Z": "0"}, {"Y": "0"}) == -math.inf

    def test_overlapping_events_rejected(self):
        with pytest.raises(ValidationError):
            pmi(joint_f3(), {"X": "0"}, {"X": "1"}, {"Y": "0"})


    def test_ratio_beyond_double_range_is_finite(self):
        # the exact ratio (0.5 + 2c) / (2c) overflows float(); its log does not
        j = overflow_joint()
        x, z, y = {"X": "1"}, {"Z": "1"}, {"Y": "0"}
        value = pmi(j, x, z, y)
        assert value == pytest.approx(math.log(0.5) - math.log(2 * 1e-320), rel=1e-12)
        assert value == pmi(j, z, x, y)


def _outcome(call):
    """The value of call(), or the type of the SoftTiltError it raises."""
    try:
        return call()
    except (ZeroMassContext, UndefinedPMI) as exc:
        return type(exc)


def _random_event(rng: random.Random, joint: JointTable, names) -> dict[str, str]:
    return {n: rng.choice(joint.variable(n).alphabet) for n in names}


class TestKernelAgainstScan:
    """The flat integer kernel against the plain Fraction scan in helpers, query
    by query: masses equal exactly, conditionals and PMI bit for bit."""

    @seed(0x50F7)
    @settings(max_examples=90)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_interleaved_queries_match_reference(self, case):
        rng = random.Random(case)
        j = sparse_random_joint(rng)
        names = list(j.names)
        for _ in range(24):
            kind = rng.choice(("marginal", "event_mass", "conditional", "pmi"))
            rng.shuffle(names)
            if kind == "marginal":
                keep = names[: rng.randint(1, len(names))]
                m = marginal(j, keep)
                assert m.masses() == ref_marginal(j, keep)
                assert marginal(j, list(reversed(keep))) is m
            elif kind == "event_mass":
                ev = _random_event(rng, j, names[: rng.randint(0, len(names))])
                assert j.event_mass(ev) == ref_event_mass(j, ev)
            elif kind == "conditional":
                cut = rng.randint(1, len(names))
                target = names[:cut]
                ctx = _random_event(rng, j, names[cut : rng.randint(cut, len(names))])
                got = _outcome(lambda: conditional(j, target, ctx).probs)
                assert got == _outcome(lambda: ref_conditional(j, target, ctx))
            elif len(names) >= 2:
                x = _random_event(rng, j, names[:1])
                z = _random_event(rng, j, names[1:2])
                y = _random_event(rng, j, names[2 : rng.randint(2, len(names))])
                got = _outcome(lambda: pmi(j, x, z, y))
                assert got == _outcome(lambda: ref_pmi(j, x, z, y))
                if isinstance(got, float):  # and bit-identical under x/z exchange
                    assert pmi(j, z, x, y).hex() == got.hex()
        with pytest.raises(AttributeError):
            j.tol_norm = 0.5
        with pytest.raises(AttributeError):
            marginal(j, names[:1]).tol_norm = 0.5


class TestDistVector:
    def test_rejects_bad_length(self):
        with pytest.raises(ValidationError):
            DistVector((VariableSpec("X", B),), (1.0,))

    def test_rejects_non_normalized(self):
        with pytest.raises(ValidationError):
            DistVector((VariableSpec("X", B),), (0.6, 0.6))

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValidationError):
            DistVector((VariableSpec("X", B),), (1.5, -0.5))
        with pytest.raises(ValidationError):
            DistVector((VariableSpec("X", B),), (math.inf, 0.0))

    def test_index_of_and_support(self):
        d = DistVector((VariableSpec("X", ("a", "b", "c")),), (0.5, 0.0, 0.5))
        assert d.index_of({"X": "c"}) == 2
        assert d.support() == (0, 2)

    def test_total_variation(self):
        over = (VariableSpec("X", B),)
        a = DistVector(over, (1.0, 0.0))
        b = DistVector(over, (0.0, 1.0))
        assert total_variation(a, b) == 1.0
        assert total_variation(a, a) == 0.0
        with pytest.raises(ValidationError):
            total_variation(a, DistVector((VariableSpec("Y", B),), (0.5, 0.5)))
