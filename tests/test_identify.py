"""Interaction extraction, reward calibration, gauge classes, posteriors."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from softtilt import (
    Assignment,
    CoverageMismatch,
    Direction,
    DistVector,
    EventValueFunction,
    GaugeShift,
    InadmissibleSignal,
    InfiniteInteraction,
    MissingContext,
    MissingEventValue,
    SolverConfig,
    ValidationError,
    apply_gauge,
    build_problem,
    calibrate_rewards,
    check_admissibility,
    conditional,
    construct_posterior,
    default_direction,
    gauge_equivalent,
    identify_interaction,
    joint_f1,
    joint_f3,
    pmi,
    solve_tilt,
    total_variation,
)
from softtilt.identify import _lookup, _split
from helpers import (
    contexts_of,
    outcome_specs,
    overflow_joint,
    random_baseline,
    random_joint,
    random_terminals,
    sparse_joint,
)

FWD = Direction(target=("X",), base=("Y",), observed=("Z",))


class TestDirection:
    def test_tag_and_swap(self):
        assert FWD.tag == "x_given_yz"
        swapped = FWD.swapped()
        assert swapped == Direction(target=("Z",), base=("Y",), observed=("X",))
        assert swapped.tag == "z_given_yx"
        assert swapped.swapped() == FWD

    def test_conditioning_order(self):
        assert FWD.conditioning == ("Y", "Z")

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            Direction(target=("X",), base=("X",), observed=("Z",))

    def test_empty_groups_rejected(self):
        with pytest.raises(ValidationError):
            Direction(target=(), base=("Y",), observed=("Z",))
        with pytest.raises(ValidationError):
            Direction(target=("X",), base=("Y",), observed=())

    def test_default_direction(self):
        assert default_direction(joint_f3()) == FWD


class TestIdentify:
    def test_f1_all_zero(self):
        table = identify_interaction(joint_f1(), FWD)
        assert len(table.values) == 4
        for ctx in table.contexts():
            for outcome in table.outcomes_for(ctx):
                assert table.value(ctx, outcome) == 0.0

    def test_f3_matches_log_ratio_oracle(self):
        table = identify_interaction(joint_f3(), FWD)
        ctx = Assignment({"Y": "0", "Z": "0"})
        assert table.value(ctx, {"X": "0"}) == math.log(1.6)
        assert table.value(ctx, {"X": "1"}) == math.log(0.4)

    def test_matches_pmi_bit_for_bit(self, rng):
        for _ in range(15):
            j = random_joint(rng)
            table = identify_interaction(j, FWD)
            for ctx in table.contexts():
                for outcome in table.outcomes_for(ctx):
                    expected = pmi(
                        j, outcome, ctx.restrict(["Z"]), ctx.restrict(["Y"])
                    )
                    assert table.value(ctx, outcome) == expected

    def test_swap_symmetry_bit_for_bit(self, rng):
        for _ in range(15):
            j = random_joint(rng)
            fwd = identify_interaction(j, FWD)
            swp = identify_interaction(j, FWD.swapped())
            for ctx in fwd.contexts():
                for outcome in fwd.outcomes_for(ctx):
                    triple = ctx.union(outcome)
                    assert fwd.value(ctx, outcome) == swp.value(
                        triple.restrict(["X", "Y"]), triple.restrict(["Z"])
                    )

    def test_admissibility_of_extracted_tables(self, rng):
        for _ in range(15):
            j = random_joint(rng)
            residuals = check_admissibility(identify_interaction(j, FWD), j)
            assert max(residuals.values()) <= 1e-10

    def test_zero_mass_context_absent(self):
        table = identify_interaction(sparse_joint(), FWD)
        assert Assignment({"Y": "1", "Z": "0"}) not in table.values

    def test_posterior_null_cell_is_minus_inf(self):
        table = identify_interaction(sparse_joint(), FWD)
        assert table.value({"Y": "0", "Z": "0"}, {"X": "1"}) == -math.inf

    def test_ratio_beyond_double_range_is_finite(self):
        j = overflow_joint()
        table = identify_interaction(j, FWD)
        ctx, x = {"Y": "0", "Z": "1"}, {"X": "1"}
        assert table.value(ctx, x) == pmi(j, x, {"Z": "1"}, {"Y": "0"})
        assert 700 < table.value(ctx, x) < math.inf


class TestCalibrate:
    def test_f1_zero_everything(self):
        calib = calibrate_rewards(joint_f1(), FWD, EventValueFunction.zero(), alpha=1.0)
        for ctx in calib.rewards.contexts():
            assert calib.context_values[ctx] == 0.0
            for outcome in calib.rewards.outcomes_for(ctx):
                assert calib.rewards.reward(ctx, outcome) == 0.0

    def test_f3_recovers_log_ratios(self):
        calib = calibrate_rewards(joint_f3(), FWD, EventValueFunction.zero(), alpha=1.0)
        ctx = Assignment({"Y": "0", "Z": "0"})
        assert calib.rewards.reward(ctx, {"X": "0"}) == math.log(1.6)
        assert calib.rewards.reward(ctx, {"X": "1"}) == math.log(0.4)
        assert calib.context_values[ctx] == 0.0

    def test_constant_baseline_shifts_rewards_not_behavior(self):
        j = joint_f3()
        plain = calibrate_rewards(j, FWD, EventValueFunction.zero(), alpha=1.0)
        shifted = calibrate_rewards(
            j, FWD, EventValueFunction.zero(), alpha=1.0, baseline=GaugeShift.constant(3.0)
        )
        config = SolverConfig(alpha=1.0)
        for ctx in plain.rewards.contexts():
            for outcome in plain.rewards.outcomes_for(ctx):
                assert shifted.rewards.reward(ctx, outcome) == pytest.approx(
                    plain.rewards.reward(ctx, outcome) + 3.0, abs=1e-12
                )
            assert shifted.context_values[ctx] == 3.0
            a = solve_tilt(build_problem(j, EventValueFunction.zero(), config, plain.rewards, ctx))
            b = solve_tilt(build_problem(j, EventValueFunction.zero(), config, shifted.rewards, ctx))
            assert total_variation(a.optimizer, b.optimizer) <= 1e-12
            assert b.soft_value - a.soft_value == pytest.approx(3.0, abs=1e-12)

    def test_round_trip_reproduces_conditionals(self, rng):
        # joint -> rewards -> tilt == joint's own conditional, any V and K
        for _ in range(20):
            j = random_joint(rng)
            terminals = random_terminals(rng, j)
            baseline = random_baseline(rng, j, FWD.conditioning)
            alpha = 10.0 ** rng.uniform(-1.0, 1.0)
            calib = calibrate_rewards(j, FWD, terminals, alpha=alpha, baseline=baseline)
            config = SolverConfig(alpha=alpha)
            for ctx in calib.rewards.contexts():
                problem = build_problem(j, terminals, config, calib.rewards, ctx)
                solution = solve_tilt(problem)
                bayes = conditional(j, FWD.target, ctx)
                assert total_variation(solution.optimizer, bayes) <= 1e-10

    def test_infinite_cells_excluded_or_raised(self):
        j = sparse_joint()
        calib = calibrate_rewards(j, FWD, EventValueFunction.zero(), alpha=1.0)
        null_cell = (Assignment({"Y": "0", "Z": "0"}), Assignment({"X": "1"}))
        assert null_cell in calib.excluded
        assert Assignment({"X": "1"}) not in calib.rewards.entries[null_cell[0]]
        with pytest.raises(InfiniteInteraction):
            calibrate_rewards(j, FWD, EventValueFunction.zero(), alpha=1.0, on_infinite="error")

    def test_ratio_beyond_double_range_calibrates(self):
        calib = calibrate_rewards(overflow_joint(), FWD, EventValueFunction.zero(), alpha=2.0)
        reward = calib.rewards.reward({"Y": "0", "Z": "1"}, {"X": "1"})
        assert 350 < reward < math.inf

    def test_missing_baseline_context_raises(self):
        with pytest.raises(MissingContext):
            calibrate_rewards(
                joint_f3(),
                FWD,
                EventValueFunction.zero(),
                alpha=1.0,
                baseline=GaugeShift(entries={Assignment({"Y": "0", "Z": "0"}): 1.0}),
            )

    @pytest.mark.parametrize("shift, terminal, got", [
        (math.inf, 0.0, "inf"), (math.nan, 0.0, "nan"), (0.0, -math.inf, "inf"),
    ])
    def test_non_finite_value_set_after_construction_fails(self, shift, terminal, got):
        # the constructors reject these values; set afterwards, each still makes
        # the first calibrated reward non-finite, and calibration says so
        baseline = GaugeShift.constant(0.0)
        baseline.default = shift
        values = EventValueFunction.zero()
        values._default = terminal
        with pytest.raises(ValidationError) as info:
            calibrate_rewards(joint_f3(), FWD, values, alpha=1.0, baseline=baseline)
        assert str(info.value) == (
            f"calibrated reward at Y=0,Z=0/X=0 must be finite, got {got} at alpha 1.0"
        )


class TestTerminalLookup:
    """`identify._lookup`: V by full-group cell index, read once per cell, when first asked for."""

    def test_reads_each_cell_once_and_fails_where_read(self):
        s = _split(joint_f3(), FWD)
        reads = []

        class Counting(EventValueFunction):
            __slots__ = ()

            def value(self, event):
                reads.append(event)
                return super().value(event)

        terminal = _lookup(s, Counting({s.events[0]: 1.5}))
        assert [terminal(0), terminal(0)] == [1.5, 1.5]
        assert reads == [s.events[0]]
        # a cell without a value fails when read, each time, with the same text
        for _ in range(2):
            with pytest.raises(MissingEventValue, match="no value for event X=0,Y=0,Z=1 and no"):
                terminal(1)

    def test_default_only_values_build_no_events(self):
        s = _split(joint_f3(), FWD)
        terminal = _lookup(s, EventValueFunction.zero())
        assert [terminal(cell) for cell in range(len(s.m_full))] == [0.0] * len(s.m_full)
        assert "events" not in vars(s)


class TestGauge:
    def test_apply_gauge_shifts_both(self, rng):
        j = random_joint(rng)
        calib = calibrate_rewards(j, FWD, EventValueFunction.zero(), alpha=1.0)
        shift = random_baseline(rng, j, FWD.conditioning)
        shifted, values = apply_gauge(calib.rewards, calib.context_values, shift)
        for ctx in calib.rewards.contexts():
            c = shift.value(ctx)
            assert values[ctx] == calib.context_values[ctx] + c
            for outcome in calib.rewards.outcomes_for(ctx):
                assert shifted.reward(ctx, outcome) == calib.rewards.reward(ctx, outcome) + c

    @given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
    def test_apply_gauge_composes_additively(self, c1, c2):
        j = joint_f3()
        calib = calibrate_rewards(j, FWD, EventValueFunction.zero(), alpha=1.0)
        one = apply_gauge(
            *apply_gauge(calib.rewards, calib.context_values, GaugeShift.constant(c1)),
            GaugeShift.constant(c2),
        )
        two = apply_gauge(calib.rewards, calib.context_values, GaugeShift.constant(c1 + c2))
        for ctx in calib.rewards.contexts():
            assert one[1][ctx] == pytest.approx(two[1][ctx], abs=1e-12)
            for outcome in calib.rewards.outcomes_for(ctx):
                assert one[0].reward(ctx, outcome) == pytest.approx(
                    two[0].reward(ctx, outcome), abs=1e-12
                )

    def test_gauge_equivalent_recovers_shifts(self, rng):
        for _ in range(10):
            j = random_joint(rng)
            terminals = random_terminals(rng, j)
            calib = calibrate_rewards(j, FWD, terminals, alpha=1.0)
            shift = random_baseline(rng, j, FWD.conditioning)
            shifted, _ = apply_gauge(calib.rewards, calib.context_values, shift)
            cmp = gauge_equivalent((calib.rewards, terminals), (shifted, terminals), j)
            assert cmp.equivalent
            for ctx, c in cmp.shifts.items():
                assert c == pytest.approx(shift.value(ctx), abs=1e-12)

    def test_single_cell_perturbation_breaks_equivalence(self, rng):
        j = random_joint(rng)
        terminals = random_terminals(rng, j)
        calib = calibrate_rewards(j, FWD, terminals, alpha=1.0)
        ctx = calib.rewards.contexts()[0]
        outcome = calib.rewards.outcomes_for(ctx)[0]
        entries = {c: dict(row) for c, row in calib.rewards.entries.items()}
        entries[ctx][outcome] += 0.5
        from softtilt import RewardTable

        other = RewardTable(direction=FWD, entries=entries, convention=calib.rewards.convention)
        cmp = gauge_equivalent((calib.rewards, terminals), (other, terminals), j)
        assert not cmp.equivalent
        assert cmp.witness is not None and cmp.witness[0] == ctx
        assert cmp.shifts is None

    def test_different_terminals_same_class_when_sum_matches(self):
        # moving weight between r and V inside r + V keeps the class
        j = joint_f3()
        zero = EventValueFunction.zero()
        calib = calibrate_rewards(j, FWD, zero, alpha=1.0)
        bumped = EventValueFunction(
            {cell: 0.7 for cell, _ in j.support()},
        )
        entries = {
            ctx: {o: r - 0.7 for o, r in row.items()}
            for ctx, row in calib.rewards.entries.items()
        }
        from softtilt import RewardTable

        other = RewardTable(direction=FWD, entries=entries, convention="shifted into V")
        cmp = gauge_equivalent((calib.rewards, zero), (other, bumped), j)
        assert cmp.equivalent
        for c in cmp.shifts.values():
            assert abs(c) <= 1e-12

    def test_direction_mismatch_raises(self):
        j = joint_f3()
        zero = EventValueFunction.zero()
        a = calibrate_rewards(j, FWD, zero, alpha=1.0).rewards
        b = calibrate_rewards(j, FWD.swapped(), zero, alpha=1.0).rewards
        with pytest.raises(CoverageMismatch):
            gauge_equivalent((a, zero), (b, zero), j)

    def test_context_set_mismatch_raises(self):
        j = joint_f3()
        zero = EventValueFunction.zero()
        a = calibrate_rewards(j, FWD, zero, alpha=1.0).rewards
        from softtilt import RewardTable

        entries = dict(a.entries)
        entries.pop(Assignment({"Y": "1", "Z": "1"}))
        b = RewardTable(direction=FWD, entries=entries, convention=a.convention)
        with pytest.raises(CoverageMismatch):
            gauge_equivalent((a, zero), (b, zero), j)

    def test_b_missing_supported_outcome_raises(self):
        # both tables name the same contexts, but b has no reward at a cell
        # with positive posterior mass
        j = joint_f3()
        zero = EventValueFunction.zero()
        a = calibrate_rewards(j, FWD, zero, alpha=1.0).rewards
        from softtilt import RewardTable

        entries = {c: dict(row) for c, row in a.entries.items()}
        del entries[Assignment({"Y": "1", "Z": "0"})][Assignment({"X": "1"})]
        b = RewardTable(direction=FWD, entries=entries, convention="gapped")
        with pytest.raises(CoverageMismatch) as info:
            gauge_equivalent((a, zero), (b, zero), j)
        assert str(info.value) == "table b misses outcome X=1 at context Y=1,Z=0"

    def test_apply_gauge_over_other_contexts_raises(self):
        j = joint_f3()
        zero = EventValueFunction.zero()
        fwd = calibrate_rewards(j, FWD, zero, alpha=1.0)
        swapped_values = calibrate_rewards(j, FWD.swapped(), zero, alpha=1.0).context_values
        with pytest.raises(
            ValidationError, match="^context values and reward table cover different contexts$"
        ):
            apply_gauge(fwd.rewards, swapped_values, GaugeShift.constant(1.0))


class TestAdmissibility:
    def test_offset_shows_up_as_residual(self):
        j = joint_f3()
        table = identify_interaction(j, FWD)
        bumped = {
            ctx: {o: v + 0.1 for o, v in row.items()} for ctx, row in table.values.items()
        }
        from softtilt import InteractionTable

        residuals = check_admissibility(InteractionTable(direction=FWD, values=bumped), j)
        for value in residuals.values():
            assert value == pytest.approx(0.1, abs=1e-12)

    def test_missing_supported_outcome_raises(self):
        j = joint_f3()
        table = identify_interaction(j, FWD)
        del table.values[Assignment({"Y": "0", "Z": "0"})][Assignment({"X": "0"})]
        with pytest.raises(ValidationError):
            check_admissibility(table, j)

    def test_context_off_the_grid_raises(self):
        j = joint_f3()
        table = identify_interaction(j, FWD)
        table.values[Assignment({"Y": "0", "Z": "9"})] = table.values.pop(
            Assignment({"Y": "0", "Z": "1"})
        )
        with pytest.raises(ValidationError) as info:
            check_admissibility(table, j)
        assert str(info.value) == (
            "context must bind exactly ['Y', 'Z'] with labels of their alphabets, got Y=0,Z=9"
        )


class TestConstructPosterior:
    def test_f3_elementwise_product_oracle(self):
        prior = DistVector(outcome_specs(2), (0.5, 0.5))
        posterior = construct_posterior(prior, (math.log(1.6), math.log(0.4)))
        assert posterior.probs[0] == pytest.approx(0.8, abs=1e-12)
        assert posterior.probs[1] == pytest.approx(0.2, abs=1e-12)

    def test_inadmissible_signal_raises(self):
        prior = DistVector(outcome_specs(2), (0.5, 0.5))
        with pytest.raises(InadmissibleSignal):
            construct_posterior(prior, (math.log(1.6) + 0.1, math.log(0.4) + 0.1))

    def test_minus_inf_empties_cell(self):
        prior = DistVector(outcome_specs(2), (0.5, 0.5))
        posterior = construct_posterior(prior, (math.log(2.0), -math.inf))
        assert posterior.probs == (1.0, 0.0)

    def test_ignores_signal_off_support(self):
        prior = DistVector(outcome_specs(2), (1.0, 0.0))
        posterior = construct_posterior(prior, (0.0, 123.0))
        assert posterior.probs == (1.0, 0.0)

    def test_wrong_length_rejected(self):
        prior = DistVector(outcome_specs(2), (0.5, 0.5))
        with pytest.raises(ValidationError):
            construct_posterior(prior, (0.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_or_inf_signal_rejected(self, bad):
        prior = DistVector(outcome_specs(2), (0.5, 0.5))
        with pytest.raises(ValidationError) as info:
            construct_posterior(prior, (bad, 0.0))
        assert str(info.value) == "signal at supported outcome 0 must be in [-inf, inf)"

    def test_matches_identified_posteriors(self, rng):
        for _ in range(10):
            j = random_joint(rng)
            table = identify_interaction(j, FWD)
            for ctx in table.contexts():
                prior = conditional(j, FWD.target, ctx.restrict(FWD.base))
                signal = [
                    table.values[ctx].get(o, -math.inf) if p > 0 else -math.inf
                    for o, p in zip(prior.outcomes(), prior.probs)
                ]
                posterior = construct_posterior(prior, signal)
                assert total_variation(posterior, conditional(j, FWD.target, ctx)) <= 1e-12
