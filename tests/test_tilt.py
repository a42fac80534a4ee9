"""Closed-form tilt solving, objective evaluation, KL decomposition."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from softtilt import (
    DistVector,
    SoftUpdateProblem,
    SolverConfig,
    SupportViolation,
    ValidationError,
    VariableSpec,
    kl_decomposition_residual,
    kl_divergence,
    logsumexp,
    objective_value,
    soft_value,
    solve_tilt,
    total_variation,
)
from softtilt.tilt import _decomposition_residual, _point_residual
from helpers import grid_problem, outcome_specs, random_candidate, random_problem


def f3_slice_problem() -> SoftUpdateProblem:
    """Fair prior with the noisy-copy slice's log-ratios as rewards.

    Hand oracle: normalization is 0.5*1.6 + 0.5*0.4 = 1, so the log
    normalizer and soft value are 0 and the optimizer is (0.8, 0.2).
    """
    return SoftUpdateProblem(
        prior=DistVector(outcome_specs(2), (0.5, 0.5)),
        reward=(math.log(1.6), math.log(0.4)),
        terminal=(0.0, 0.0),
        config=SolverConfig(alpha=1.0),
    )


class TestLogsumexp:
    def test_empty_is_minus_inf(self):
        assert logsumexp([]) == -math.inf

    def test_known_value(self):
        assert abs(logsumexp([math.log(2.0), math.log(3.0)]) - math.log(5.0)) < 1e-15

    def test_minus_inf_terms_ignored(self):
        assert logsumexp([-math.inf, 0.0]) == 0.0
        assert logsumexp([-math.inf, -math.inf]) == -math.inf

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(ValidationError):
            logsumexp([math.nan])
        with pytest.raises(ValidationError):
            logsumexp([math.inf])

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_invariance(self, xs, c):
        assert logsumexp([x + c for x in xs]) == pytest.approx(logsumexp(xs) + c, abs=1e-9)

    def test_extreme_values_do_not_overflow(self):
        assert abs(logsumexp([1000.0, 1000.0]) - (1000.0 + math.log(2.0))) < 1e-12


class TestSolveTilt:
    def test_f3_slice_closed_form(self):
        solution = solve_tilt(f3_slice_problem())
        assert abs(solution.soft_value) <= 1e-12
        assert abs(solution.log_normalizer) <= 1e-12
        assert abs(solution.optimizer.probs[0] - 0.8) <= 1e-12
        assert abs(solution.optimizer.probs[1] - 0.2) <= 1e-12

    def test_zero_payoff_returns_prior(self, rng):
        for _ in range(20):
            problem = random_problem(rng)
            flat = SoftUpdateProblem(
                prior=problem.prior,
                reward=(0.0,) * len(problem.prior.probs),
                terminal=(0.0,) * len(problem.prior.probs),
                config=problem.config,
            )
            solution = solve_tilt(flat)
            assert total_variation(solution.optimizer, flat.prior) <= 1e-15
            assert solution.soft_value == 0.0

    def test_prior_zero_stays_zero(self):
        problem = SoftUpdateProblem(
            prior=DistVector(outcome_specs(3), (0.5, 0.0, 0.5)),
            reward=(0.0, 100.0, 1.0),
            terminal=(0.0, 0.0, 0.0),
            config=SolverConfig(alpha=1.0),
        )
        solution = solve_tilt(problem)
        assert solution.optimizer.probs[1] == 0.0

    def test_log_normalizer_is_alpha_times_value(self, rng):
        for _ in range(50):
            problem = random_problem(rng)
            solution = solve_tilt(problem)
            assert solution.log_normalizer == pytest.approx(
                problem.config.alpha * solution.soft_value, rel=1e-12, abs=1e-12
            )
            assert soft_value(problem) == solution.soft_value

    def test_large_payoffs_do_not_overflow(self):
        problem = SoftUpdateProblem(
            prior=DistVector(outcome_specs(2), (0.5, 0.5)),
            reward=(800.0, 799.0),
            terminal=(0.0, 0.0),
            config=SolverConfig(alpha=1.0),
        )
        solution = solve_tilt(problem)
        assert math.isfinite(solution.soft_value)
        assert abs(sum(solution.optimizer.probs) - 1.0) <= 1e-12

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            SoftUpdateProblem(
                prior=DistVector(outcome_specs(2), (0.5, 0.5)),
                reward=(0.0,),
                terminal=(0.0, 0.0),
                config=SolverConfig(alpha=1.0),
            )

    def test_nonfinite_payoff_on_support_rejected(self):
        with pytest.raises(ValidationError):
            SoftUpdateProblem(
                prior=DistVector(outcome_specs(2), (0.5, 0.5)),
                reward=(math.inf, 0.0),
                terminal=(0.0, 0.0),
                config=SolverConfig(alpha=1.0),
            )

    def test_nonfinite_payoff_off_support_allowed(self):
        problem = SoftUpdateProblem(
            prior=DistVector(outcome_specs(2), (1.0, 0.0)),
            reward=(0.0, math.inf),
            terminal=(0.0, 0.0),
            config=SolverConfig(alpha=1.0),
        )
        assert solve_tilt(problem).optimizer.probs == (1.0, 0.0)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValidationError):
            SolverConfig(alpha=0.0)
        with pytest.raises(ValidationError):
            SolverConfig(alpha=-1.0)


class TestObjective:
    def test_candidates_never_beat_soft_value(self, rng):
        for _ in range(40):
            problem = random_problem(rng)
            best = soft_value(problem)
            for _ in range(50):
                q = random_candidate(rng, problem)
                assert objective_value(problem, q) <= best + 1e-10

    def test_optimizer_attains_soft_value(self, rng):
        for _ in range(40):
            problem = random_problem(rng)
            solution = solve_tilt(problem)
            attained = objective_value(problem, solution.optimizer)
            assert attained == pytest.approx(solution.soft_value, abs=1e-10)

    def test_near_equality_implies_near_optimizer(self, rng):
        # converse of optimality: a candidate attaining the value within
        # 1e-10 must be the optimizer within 1e-8 total variation; the
        # optimizer itself keeps the equality branch nonvacuous
        hits = 0
        for _ in range(60):
            problem = random_problem(rng)
            solution = solve_tilt(problem)
            candidates = [solution.optimizer]
            candidates += [random_candidate(rng, problem) for _ in range(200)]
            for candidate in candidates:
                if objective_value(problem, candidate) >= solution.soft_value - 1e-10:
                    hits += 1
                    assert total_variation(candidate, solution.optimizer) <= 1e-8
        assert hits >= 60

    def test_grid_oracle_attains_soft_value(self, rng):
        # independent maximizer: scan the 2-outcome simplex at pitch 1e-3
        for _ in range(30):
            problem = grid_problem(rng)
            best = soft_value(problem)
            grid_best = -math.inf
            for i in range(1, 1000):
                q0 = i / 1000.0
                q = DistVector(problem.prior.over, (q0, 1.0 - q0))
                grid_best = max(grid_best, objective_value(problem, q))
            assert grid_best <= best + 1e-10
            assert grid_best >= best - 1e-5

    def test_support_violation(self):
        problem = SoftUpdateProblem(
            prior=DistVector(outcome_specs(2), (1.0, 0.0)),
            reward=(0.0, 0.0),
            terminal=(0.0, 0.0),
            config=SolverConfig(alpha=1.0),
        )
        with pytest.raises(SupportViolation):
            objective_value(problem, DistVector(outcome_specs(2), (0.5, 0.5)))

    def test_group_mismatch_rejected(self):
        problem = f3_slice_problem()
        other = DistVector((VariableSpec("W", ("0", "1")),), (0.5, 0.5))
        with pytest.raises(ValidationError):
            objective_value(problem, other)


class TestKL:
    def test_kl_basics(self):
        over = outcome_specs(2)
        p = DistVector(over, (0.5, 0.5))
        q = DistVector(over, (0.8, 0.2))
        assert kl_divergence(p, p) == 0.0
        assert kl_divergence(q, p) == pytest.approx(
            0.8 * math.log(1.6) + 0.2 * math.log(0.4), abs=1e-15
        )
        with pytest.raises(SupportViolation):
            kl_divergence(p, DistVector(over, (1.0, 0.0)))

    def test_subnormal_prior_mass_does_not_overflow(self):
        # 0.5 / 1e-320 overflows a double; the log-ratio must not
        over = outcome_specs(2)
        p = DistVector(over, (1.0, 1e-320))
        q = DistVector(over, (0.5, 0.5))
        log_ratio = math.log(0.5) - math.log(1e-320)
        assert kl_divergence(q, p) == pytest.approx(
            0.5 * math.log(0.5) + 0.5 * log_ratio, rel=1e-15
        )
        problem = SoftUpdateProblem(
            prior=p, reward=(0.0, 0.0), terminal=(0.0, 0.0), config=SolverConfig(alpha=2.0)
        )
        assert objective_value(problem, q) == pytest.approx(
            -0.5 * (math.log(0.5) + log_ratio) / 2.0, rel=1e-15
        )
        assert kl_decomposition_residual(problem, q) <= 1e-12

    def test_decomposition_residual_small_everywhere(self, rng):
        for _ in range(40):
            problem = random_problem(rng)
            solution = solve_tilt(problem)
            probes = [problem.prior, solution.optimizer]
            probes += [random_candidate(rng, problem) for _ in range(10)]
            for i, p in enumerate(problem.prior.probs):
                if p > 0:
                    point = tuple(
                        1.0 if j == i else 0.0 for j in range(len(problem.prior.probs))
                    )
                    probes.append(DistVector(problem.prior.over, point))
            for q in probes:
                assert kl_decomposition_residual(problem, q) <= 1e-10

    def test_gauge_shift_at_problem_level(self, rng):
        # adding a constant to every reward moves the value, not the optimizer
        for _ in range(30):
            problem = random_problem(rng)
            c = rng.uniform(-3.0, 3.0)
            shifted = SoftUpdateProblem(
                prior=problem.prior,
                reward=tuple(r + c for r in problem.reward),
                terminal=problem.terminal,
                config=problem.config,
            )
            base = solve_tilt(problem)
            moved = solve_tilt(shifted)
            assert total_variation(base.optimizer, moved.optimizer) <= 1e-12
            assert moved.soft_value - base.soft_value == pytest.approx(c, abs=1e-12)


def _outcome(thunk) -> str:
    """A residual as its float's hex, or the error it raises as class and text."""
    try:
        return thunk().hex()
    except SupportViolation as exc:
        return f"SupportViolation: {exc}"


class TestPointProbe:
    """`_point_residual`, the decomposition check's O(1) point-mass probe, against
    `_decomposition_residual` of the point mass as a `DistVector`: bit for bit, or
    the same error where the solver's optimizer underflows to zero."""

    @seed(0x9B0B)
    @settings(max_examples=300)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_the_distvector_probe(self, case):
        rng = random.Random(case)
        n = rng.randint(1, 7)
        kinds = [rng.choice(("normal", "normal", "zero", "tiny", "min")) for _ in range(n)]
        kinds[rng.randrange(n)] = "normal"
        tiny = {"zero": 0.0, "tiny": rng.uniform(1e-300, 9e-300), "min": 5e-324}
        weights = [rng.random() + 1e-3 if k == "normal" else 0.0 for k in kinds]
        rest = 1.0 - math.fsum(tiny[k] for k in kinds if k != "normal")
        total = math.fsum(weights)
        probs = [w / total * rest if k == "normal" else tiny[k] for k, w in zip(kinds, weights)]
        scale = rng.choice((1.0, 50.0, 800.0))
        reward = [rng.choice((0.0, -0.0, rng.uniform(-scale, scale))) for _ in range(n)]
        terminal = [rng.choice((0.0, rng.uniform(-1.0, 1.0))) for _ in range(n)]
        problem = SoftUpdateProblem(
            prior=DistVector(outcome_specs(n), tuple(probs)), reward=tuple(reward),
            terminal=tuple(terminal), config=SolverConfig(alpha=rng.choice((0.1, 1.0, 3.0))),
        )
        solution = solve_tilt(problem)
        for i in problem.prior.support():
            point = DistVector(problem.prior.over, tuple(float(j == i) for j in range(n)))
            want = _outcome(lambda: _decomposition_residual(problem, solution, point))
            assert _outcome(lambda: _point_residual(problem, solution, i)) == want
