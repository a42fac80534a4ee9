"""Event-keyed terminals, both-direction assembly, order independence."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from softtilt import (
    Assignment,
    CoverageMismatch,
    Direction,
    DirectionPair,
    EventValueFunction,
    JointTable,
    MissingContext,
    MissingEventValue,
    RewardTable,
    SolverConfig,
    ValidationError,
    ZeroMassContext,
    build_problem,
    calibrate_rewards,
    commutativity_residual,
    conditional,
    joint_f1,
    joint_f3,
    order_independence_check,
    solve_tilt,
    total_variation,
)
from softtilt.cli import _REWARDS, _merge_terminals
from softtilt.coherence import _problem
from softtilt.identify import _calibrate, _interactions, _lookup, _split
from softtilt.io import _read_rows, _table_text, reward_from_doc
from helpers import random_baseline, random_joint, random_terminals, sparse_joint

FWD = Direction(target=("X",), base=("Y",), observed=("Z",))


def aligned_sparse_joint():
    """Binary joint whose empty cells form the whole (X=1, Y=0) slice.

    Both directions' base conditionals vanish exactly where the joint does,
    so every zero cell is skippable rather than a coverage error.
    """
    from fractions import Fraction

    from softtilt import VariableSpec

    specs = tuple(VariableSpec(name, ("0", "1")) for name in ("X", "Y", "Z"))
    tenths = {
        ("0", "0", "0"): 3,
        ("0", "0", "1"): 2,
        ("0", "1", "0"): 1,
        ("0", "1", "1"): 1,
        ("1", "1", "0"): 1,
        ("1", "1", "1"): 2,
    }
    mass = {
        Assignment({"X": x, "Y": y, "Z": z}): Fraction(n, 10)
        for (x, y, z), n in tenths.items()
    }
    return JointTable(specs, mass)


def calibrated_pair(joint, terminals, alpha=1.0, baseline_fwd=None, baseline_swp=None):
    fwd = calibrate_rewards(joint, FWD, terminals, alpha=alpha, baseline=baseline_fwd)
    swp = calibrate_rewards(joint, FWD.swapped(), terminals, alpha=alpha, baseline=baseline_swp)
    return fwd, swp


class TestEventValueFunction:
    def test_permutation_invariant_keys(self):
        values = EventValueFunction({Assignment({"X": "0", "Y": "1"}): 2.5})
        assert values.value({"Y": "1", "X": "0"}) == 2.5
        assert values.value(Assignment([("X", "0"), ("Y", "1")])) == 2.5

    @given(st.permutations([("X", "0"), ("Y", "1"), ("Z", "0")]))
    def test_lookup_ignores_binding_order(self, items):
        values = EventValueFunction({Assignment({"X": "0", "Y": "1", "Z": "0"}): -1.25})
        assert values.value(Assignment(items)) == -1.25

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            EventValueFunction(
                [(Assignment({"X": "0"}), 1.0), (Assignment({"X": "0"}), 2.0)]
            )

    def test_missing_without_default_raises(self):
        values = EventValueFunction({Assignment({"X": "0"}): 1.0})
        with pytest.raises(MissingEventValue):
            values.value({"X": "1"})

    def test_default_fallback(self):
        values = EventValueFunction({Assignment({"X": "0"}): 1.0}, default=9.0)
        assert values.value({"X": "1"}) == 9.0
        assert EventValueFunction.zero().value({"X": "0", "Y": "1"}) == 0.0

    def test_partial_events_allowed(self):
        values = EventValueFunction({Assignment({"Y": "0"}): 4.0})
        assert values.value({"Y": "0"}) == 4.0

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            EventValueFunction({Assignment({"X": "0"}): math.nan})


class TestBuildProblem:
    def test_calibrated_rewards_reproduce_bayes(self):
        j = joint_f3()
        calib = calibrate_rewards(j, FWD, EventValueFunction.zero(), alpha=1.0)
        config = SolverConfig(alpha=1.0)
        for ctx in calib.rewards.contexts():
            problem = build_problem(j, EventValueFunction.zero(), config, calib.rewards, ctx)
            assert total_variation(problem.prior, conditional(j, ["X"], ctx.restrict(["Y"]))) == 0.0
            solution = solve_tilt(problem)
            assert total_variation(solution.optimizer, conditional(j, ["X"], ctx)) <= 1e-12

    def test_swapped_round_trip(self):
        # rewards calibrated in the swapped direction tilt P(z|y) into P(z|y,x)
        j = joint_f3()
        swp = calibrate_rewards(j, FWD.swapped(), EventValueFunction.zero(), alpha=1.0)
        config = SolverConfig(alpha=1.0)
        for ctx in swp.rewards.contexts():
            problem = build_problem(j, EventValueFunction.zero(), config, swp.rewards, ctx)
            solution = solve_tilt(problem)
            assert total_variation(solution.optimizer, conditional(j, ["Z"], ctx)) <= 1e-12

    def test_wrong_context_variables_rejected(self):
        j = joint_f3()
        calib = calibrate_rewards(j, FWD, EventValueFunction.zero(), alpha=1.0)
        with pytest.raises(ValidationError):
            build_problem(
                j, EventValueFunction.zero(), SolverConfig(alpha=1.0), calib.rewards, {"Y": "0"}
            )

    def test_zero_mass_context_raises(self):
        j = sparse_joint()
        calib = calibrate_rewards(j, FWD, EventValueFunction.zero(), alpha=1.0)
        entries = dict(calib.rewards.entries)
        entries[Assignment({"Y": "1", "Z": "0"})] = {Assignment({"X": "0"}): 0.0}
        padded = RewardTable(direction=FWD, entries=entries, convention="padded")
        with pytest.raises(ZeroMassContext):
            build_problem(
                j,
                EventValueFunction.zero(),
                SolverConfig(alpha=1.0),
                padded,
                {"Y": "1", "Z": "0"},
            )

    def test_missing_reward_entry_raises(self):
        j = joint_f3()
        calib = calibrate_rewards(j, FWD, EventValueFunction.zero(), alpha=1.0)
        ctx = Assignment({"Y": "0", "Z": "0"})
        entries = {c: dict(row) for c, row in calib.rewards.entries.items()}
        del entries[ctx][Assignment({"X": "1"})]
        broken = RewardTable(direction=FWD, entries=entries, convention="broken")
        with pytest.raises(ValidationError):
            build_problem(j, EventValueFunction.zero(), SolverConfig(alpha=1.0), broken, ctx)


class TestCommutativityResidual:
    def test_calibrated_pair_is_exactly_coherent(self, rng):
        for _ in range(10):
            j = random_joint(rng)
            terminals = random_terminals(rng, j)
            fwd, swp = calibrated_pair(j, terminals)
            residuals = commutativity_residual(
                fwd.rewards, fwd.context_values, swp.rewards, swp.context_values
            )
            assert max(residuals.values()) <= 1e-10

    def test_baselines_cancel(self, rng):
        j = random_joint(rng)
        terminals = random_terminals(rng, j)
        fwd, swp = calibrated_pair(
            j,
            terminals,
            baseline_fwd=random_baseline(rng, j, FWD.conditioning),
            baseline_swp=random_baseline(rng, j, FWD.swapped().conditioning),
        )
        residuals = commutativity_residual(
            fwd.rewards, fwd.context_values, swp.rewards, swp.context_values
        )
        assert max(residuals.values()) <= 1e-10

    def test_perturbation_localizes_exactly(self, rng):
        j = random_joint(rng)
        terminals = random_terminals(rng, j)
        fwd, swp = calibrated_pair(j, terminals)
        ctx = fwd.rewards.contexts()[1]
        outcome = fwd.rewards.outcomes_for(ctx)[0]
        triple = ctx.union(outcome)
        entries = {c: dict(row) for c, row in fwd.rewards.entries.items()}
        entries[ctx][outcome] += 1e-2
        bumped = RewardTable(direction=FWD, entries=entries, convention=fwd.rewards.convention)
        residuals = commutativity_residual(
            bumped, fwd.context_values, swp.rewards, swp.context_values
        )
        assert residuals[triple] == pytest.approx(1e-2, abs=1e-12)
        others = [v for t, v in residuals.items() if t != triple]
        assert max(others) <= 1e-10

    def test_triple_mismatch_raises(self, rng):
        j = random_joint(rng)
        terminals = random_terminals(rng, j)
        fwd, swp = calibrated_pair(j, terminals)
        ctx = swp.rewards.contexts()[0]
        outcome = swp.rewards.outcomes_for(ctx)[0]
        entries = {c: dict(row) for c, row in swp.rewards.entries.items()}
        del entries[ctx][outcome]
        gapped = RewardTable(
            direction=FWD.swapped(), entries=entries, convention=swp.rewards.convention
        )
        with pytest.raises(CoverageMismatch):
            commutativity_residual(fwd.rewards, fwd.context_values, gapped, swp.context_values)

    def test_non_swap_directions_raise(self, rng):
        j = random_joint(rng)
        fwd = calibrate_rewards(j, FWD, EventValueFunction.zero(), alpha=1.0)
        with pytest.raises(CoverageMismatch):
            commutativity_residual(
                fwd.rewards, fwd.context_values, fwd.rewards, fwd.context_values
            )

    def test_missing_context_value_raises(self, rng):
        j = random_joint(rng)
        terminals = random_terminals(rng, j)
        fwd, swp = calibrated_pair(j, terminals)
        partial = dict(fwd.context_values)
        partial.pop(next(iter(partial)))
        with pytest.raises(MissingContext):
            commutativity_residual(fwd.rewards, partial, swp.rewards, swp.context_values)


class TestOrderIndependence:
    def make_pair(self, joint, terminals, alpha=1.0):
        return DirectionPair(
            joint=joint, values=terminals, config=SolverConfig(alpha=alpha), forward=FWD
        )

    def test_f1_zero_setup_is_exactly_zero(self):
        j = joint_f1()
        zero = EventValueFunction.zero()
        fwd, swp = calibrated_pair(j, zero)
        report = order_independence_check(self.make_pair(j, zero), fwd.rewards, swp.rewards)
        assert report.passed
        assert report.max_residual == 0.0
        assert report.skipped == ()

    def test_calibrated_f3_passes(self):
        j = joint_f3()
        zero = EventValueFunction.zero()
        fwd, swp = calibrated_pair(j, zero)
        report = order_independence_check(self.make_pair(j, zero), fwd.rewards, swp.rewards)
        assert report.passed
        assert report.max_residual <= 1e-10
        assert set(report.identification) == {"x_given_yz", "z_given_yx"}

    def test_random_joints_with_shared_terminals_pass(self, rng):
        for _ in range(8):
            j = random_joint(rng)
            terminals = random_terminals(rng, j)
            alpha = 10.0 ** rng.uniform(-1.0, 1.0)
            fwd, swp = calibrated_pair(j, terminals, alpha=alpha)
            report = order_independence_check(
                self.make_pair(j, terminals, alpha=alpha), fwd.rewards, swp.rewards
            )
            assert report.passed, report.max_residual

    def test_zero_mass_cells_skipped(self):
        j = aligned_sparse_joint()
        zero = EventValueFunction.zero()
        fwd, swp = calibrated_pair(j, zero)
        report = order_independence_check(self.make_pair(j, zero), fwd.rewards, swp.rewards)
        assert report.passed
        skipped_cells = {cell for cell, _ in report.skipped}
        assert skipped_cells == {
            Assignment({"X": "1", "Y": "0", "Z": "0"}),
            Assignment({"X": "1", "Y": "0", "Z": "1"}),
        }
        for cell, reason in report.skipped:
            assert reason == "zero joint mass"

    def test_posterior_null_cell_is_a_hard_error(self):
        # a prior-supported outcome with zero joint mass has no finite reward,
        # so the audit cannot silently skip it
        j = sparse_joint()
        zero = EventValueFunction.zero()
        fwd, swp = calibrated_pair(j, zero)
        with pytest.raises(ValidationError):
            order_independence_check(self.make_pair(j, zero), fwd.rewards, swp.rewards)

    def test_wrong_table_direction_rejected(self):
        j = joint_f3()
        zero = EventValueFunction.zero()
        fwd, swp = calibrated_pair(j, zero)
        pair = self.make_pair(j, zero)
        with pytest.raises(ValidationError):
            order_independence_check(pair, swp.rewards, fwd.rewards)

    def test_entry_off_the_grid_raises(self, rng):
        j = random_joint(rng)
        zero = EventValueFunction.zero()
        fwd, swp = calibrated_pair(j, zero)
        entries = {c: dict(row) for c, row in fwd.rewards.entries.items()}
        entries[fwd.rewards.contexts()[0]][Assignment({"Y": "0"})] = 0.0
        stray = RewardTable(direction=FWD, entries=entries)
        with pytest.raises(CoverageMismatch, match="^x_given_yz table has entries off its grid$"):
            order_independence_check(self.make_pair(j, zero), stray, swp.rewards)


class TestFrontDoors:
    """order_independence_check indexes each context's problem and each triple by
    cell; build_problem and commutativity_residual, the public doors, key them by
    Assignment. Both must give the same problems and residuals, bit for bit."""

    @staticmethod
    def soft_values(pair, rewards):
        s = _split(pair.joint, rewards.direction)
        return {
            s.contexts[ci]: solve_tilt(build_problem(
                pair.joint, pair.values, pair.config, rewards, s.contexts[ci]
            )).soft_value
            for ci in s.order if s.m_cond[ci]
        }

    def assert_doors_agree(self, pair, fwd, swp):
        for rewards in (fwd, swp):
            s = _split(pair.joint, rewards.direction)
            for ci in s.order:
                if s.m_cond[ci]:
                    ctx = s.contexts[ci]
                    row, terminal = s.row(rewards.entries[ctx]), _lookup(s, pair.values)
                    problem = _problem(s, ci, row, terminal, pair.config)
                    assert problem == build_problem(
                        pair.joint, pair.values, pair.config, rewards, ctx
                    )
        report = order_independence_check(pair, fwd, swp)
        public = commutativity_residual(
            fwd, self.soft_values(pair, fwd), swp, self.soft_values(pair, swp)
        )
        assert list(report.commutativity) == list(public)
        assert [v.hex() for v in report.commutativity.values()] == [
            v.hex() for v in public.values()
        ]
        return report

    def test_random_joints(self, rng):
        for _ in range(8):
            j = random_joint(rng)
            terminals = random_terminals(rng, j)
            alpha = 10.0 ** rng.uniform(-1.0, 1.0)
            fwd, swp = calibrated_pair(
                j, terminals, alpha=alpha,
                baseline_fwd=random_baseline(rng, j, FWD.conditioning),
            )
            # off the gauge class, so that the residuals are not all rounding noise
            entries = {
                ctx: {o: r + rng.uniform(-1.0, 1.0) for o, r in row.items()}
                for ctx, row in fwd.rewards.entries.items()
            }
            bumped = RewardTable(direction=FWD, entries=entries)
            pair = DirectionPair(
                joint=j, values=terminals, config=SolverConfig(alpha=alpha), forward=FWD
            )
            report = self.assert_doors_agree(pair, bumped, swp.rewards)
            assert report.max_residual > 1e-3

    def sparse_loaded(self, fwd_extra=(), swp_extra=()):
        """sparse_joint's identified reward files read back with fill_zero, each
        with extra entries (context, outcome) of reward 0 added first."""
        j = sparse_joint()
        docs = []
        for direction, extra in ((FWD, fwd_extra), (FWD.swapped(), swp_extra)):
            s = _split(j, direction)
            rows = _calibrate(s, _interactions(s), lambda cell: 0.0, 1.0)[0]
            text = _table_text(j, direction, 1.0, rows, _REWARDS, lambda ci, ti, r: (r, 0.0))
            doc = json.loads(text)
            doc["entries"] += [
                {"context": ctx, "outcome": outcome, "r": 0.0, "V": 0.0}
                for ctx, outcome in extra
            ]
            docs.append(doc)
        fwd, swp = (_read_rows(doc, j, "reward", fill_zero=True) for doc in docs)
        s = fwd.split
        merged = _merge_terminals(s, j._order(s.full), fwd.terminals, swp.terminals)
        pair = DirectionPair(
            joint=j,
            values=EventValueFunction({s.events[c]: v for c, v in enumerate(merged) if v is not None}),
            config=SolverConfig(alpha=1.0), forward=FWD,
        )
        fwd, swp = (reward_from_doc(doc, j, fill_zero=True).rewards for doc in docs)
        return pair, fwd, swp

    def test_sparse_joint_filled_with_zero(self):
        report = self.assert_doors_agree(*self.sparse_loaded())
        assert not report.passed  # the filled posterior-null cell breaks coherence
        assert {str(cell) for cell, _ in report.skipped} == {
            "X=0,Y=1,Z=0", "X=1,Y=0,Z=0", "X=1,Y=1,Z=0"
        }

    def test_rows_at_a_zero_mass_context_miss_a_context_value(self):
        # the forward rows at Y=1,Z=0 meet swapped rows at Z=0 off P(Z | Y=1)'s
        # support, so the triples agree but no forward context value exists there
        pair, fwd, swp = self.sparse_loaded(
            fwd_extra=[({"Y": "1", "Z": "0"}, {"X": x}) for x in "01"],
            swp_extra=[({"X": x, "Y": "1"}, {"Z": "0"}) for x in "01"],
        )
        with pytest.raises(MissingContext, match="^forward context values miss Y=1,Z=0$"):
            order_independence_check(pair, fwd, swp)
        with pytest.raises(MissingContext, match="^forward context values miss Y=1,Z=0$"):
            commutativity_residual(fwd, self.soft_values(pair, fwd), swp,
                                   self.soft_values(pair, swp))
