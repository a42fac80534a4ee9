"""Posterior identification: interaction extraction and reward calibration.

Pinning the updated conditional to the tilt optimizer forces the scaled
within-context payoff to equal the conditional pointwise mutual information:
    alpha (r(x) + V(x, ctx) - V(ctx)) = i(x; observed | base).
That fixes rewards only up to a per-context constant (a gauge shift), so
calibration takes an explicit baseline convention for V(ctx), default 0.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from math import fsum
from statistics import median
from typing import TYPE_CHECKING

from .dist import (
    Assignment,
    DistVector,
    JointTable,
    as_assignment,
    conditional,
    iter_group_assignments,
    log_rational,
    marginal,
)
from .errors import (
    CoverageMismatch,
    InadmissibleSignal,
    InfiniteInteraction,
    MissingContext,
    ValidationError,
)
from .tilt import logsumexp

if TYPE_CHECKING:  # terminal values come from coherence; typing-only to avoid a cycle
    from .coherence import EventValueFunction


@dataclass(frozen=True)
class Direction:
    """Which variable group is updated, split from the conditioning groups.

    target is updated; base is the already-known context; observed is the
    group whose information drives the update. The interaction extracted is
    i(target; observed | base).
    """

    target: tuple[str, ...]
    base: tuple[str, ...]
    observed: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "observed", tuple(self.observed))
        if not self.target or not self.observed:
            raise ValidationError("direction needs nonempty target and observed groups")
        groups = self.target + self.base + self.observed
        for name in groups:
            if not isinstance(name, str) or not name:
                raise ValidationError(f"variable names must be nonempty strings, got {name!r}")
        if len(set(groups)) != len(groups):
            raise ValidationError("direction groups must be pairwise disjoint")

    @property
    def conditioning(self) -> tuple[str, ...]:
        return self.base + self.observed

    @property
    def tag(self) -> str:
        left = "".join(self.target).lower()
        right = "".join(self.base + self.observed).lower()
        return f"{left}_given_{right}"

    def swapped(self) -> "Direction":
        """Exchange the updated group with the observed group."""
        return Direction(target=self.observed, base=self.base, observed=self.target)


def default_direction(joint: JointTable) -> Direction:
    """First variable updated given the rest; last variable is the observed one."""
    names = joint.names
    if len(names) < 2:
        raise ValidationError("need at least two variables to form a direction")
    return Direction(target=(names[0],), base=names[1:-1], observed=(names[-1],))


@dataclass
class InteractionTable:
    """Per-context interaction values i(outcome; observed | base).

    Defined exactly on positive-mass contexts; outcomes with zero prior
    conditional are absent; posterior-null outcomes carry -inf.
    """

    direction: Direction
    values: dict[Assignment, dict[Assignment, float]]

    def contexts(self) -> list[Assignment]:
        return sorted(self.values, key=lambda a: a.items_sorted)

    def outcomes_for(self, context: Assignment) -> list[Assignment]:
        return sorted(self.values[context], key=lambda a: a.items_sorted)

    def value(self, context, outcome) -> float:
        return self.values[as_assignment(context)][as_assignment(outcome)]


@dataclass
class RewardTable:
    """Per-context, per-outcome rewards in a stated baseline convention."""

    direction: Direction
    entries: dict[Assignment, dict[Assignment, float]]
    convention: str = "zero context baseline"

    def contexts(self) -> list[Assignment]:
        return sorted(self.entries, key=lambda a: a.items_sorted)

    def outcomes_for(self, context: Assignment) -> list[Assignment]:
        return sorted(self.entries[context], key=lambda a: a.items_sorted)

    def reward(self, context, outcome) -> float:
        return self.entries[as_assignment(context)][as_assignment(outcome)]


@dataclass
class GaugeShift:
    """A per-context constant c(ctx); optionally a default for all contexts."""

    entries: dict[Assignment, float] = field(default_factory=dict)
    default: float | None = None

    def __post_init__(self) -> None:
        self.entries = {as_assignment(k): float(v) for k, v in dict(self.entries).items()}
        for ctx, v in self.entries.items():
            if not math.isfinite(v):
                raise ValidationError(f"gauge shift at {ctx!r} must be finite, got {v!r}")
        if self.default is not None:
            self.default = float(self.default)
            if not math.isfinite(self.default):
                raise ValidationError(f"gauge shift default must be finite, got {self.default!r}")

    @classmethod
    def constant(cls, value: float) -> "GaugeShift":
        return cls(entries={}, default=value)

    def value(self, context) -> float:
        ctx = as_assignment(context)
        if ctx in self.entries:
            return self.entries[ctx]
        if self.default is not None:
            return self.default
        raise MissingContext(f"gauge shift is undefined at context {ctx!r}")


@dataclass
class CalibrationResult:
    """Rewards plus the context values V(ctx) fixed by the baseline convention,
    and the interaction table the rewards were calibrated from."""

    rewards: RewardTable
    context_values: dict[Assignment, float]
    excluded: tuple[tuple[Assignment, Assignment], ...]
    alpha: float
    interaction: InteractionTable


def identify_interaction(joint: JointTable, direction: Direction) -> InteractionTable:
    """Extract i(target; observed | base) on every positive-mass context.

    The table is alpha-free: the scale factor cancels out of the identified
    ratio.
    """
    reduced = _reduced(joint, direction)
    m_cond = marginal(reduced, direction.conditioning)
    m_base = marginal(reduced, direction.base) if direction.base else None
    m_prior = marginal(reduced, direction.base + direction.target)
    target_specs = reduced.group(direction.target)
    values: dict[Assignment, dict[Assignment, float]] = {}
    for ctx, p_ctx in m_cond.support():
        ctx_base = ctx.restrict(direction.base)
        p_base = m_base._mass_full(ctx_base) if m_base is not None else reduced.total()
        row: dict[Assignment, float] = {}
        for outcome in iter_group_assignments(target_specs):
            p_prior = m_prior._mass_full(outcome.union(ctx_base))
            if p_prior == 0:
                continue  # prior conditional is zero: cell undefined, not -inf
            p_cell = reduced._mass_full(outcome.union(ctx))
            if p_cell == 0:
                row[outcome] = -math.inf
            else:
                row[outcome] = log_rational((p_cell * p_base) / (p_ctx * p_prior))
        values[ctx] = row
    return InteractionTable(direction=direction, values=values)


def _reduced(joint: JointTable, direction: Direction) -> JointTable:
    names = direction.target + direction.base + direction.observed
    joint.group(names)  # validates the names exist
    if set(names) == set(joint.names):
        return joint
    return marginal(joint, names)


def calibrate_rewards(
    joint: JointTable,
    direction: Direction,
    terminal: "EventValueFunction",
    alpha: float,
    baseline: GaugeShift | None = None,
    on_infinite: str = "exclude",
) -> CalibrationResult:
    """Recover rewards from the identified interaction under a baseline.

    r(x | ctx) = i/alpha - V(x, ctx) + K(ctx) and V(ctx) = K(ctx), where K is
    the baseline shift (0 when none is given). Posterior-null cells have no
    finite reward; they are excluded and reported, or raised when
    on_infinite="error".
    """
    if on_infinite not in ("exclude", "error"):
        raise ValidationError(f"on_infinite must be 'exclude' or 'error', got {on_infinite!r}")
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValidationError(f"alpha must be finite and > 0, got {alpha!r}")
    table = identify_interaction(joint, direction)
    entries: dict[Assignment, dict[Assignment, float]] = {}
    context_values: dict[Assignment, float] = {}
    excluded: list[tuple[Assignment, Assignment]] = []
    for ctx in table.contexts():
        shift = baseline.value(ctx) if baseline is not None else 0.0
        if not math.isfinite(shift):
            raise ValidationError(f"baseline at {ctx!r} must be finite, got {shift!r}")
        context_values[ctx] = shift
        row: dict[Assignment, float] = {}
        for outcome in table.outcomes_for(ctx):
            value = table.values[ctx][outcome]
            if value == -math.inf:
                if on_infinite == "error":
                    raise InfiniteInteraction(
                        f"posterior-null cell at context {ctx!r}, outcome {outcome!r}"
                    )
                excluded.append((ctx, outcome))
                continue
            v_term = float(terminal.value(outcome.union(ctx)))
            if not math.isfinite(v_term):
                raise ValidationError(
                    f"terminal value at {outcome.union(ctx)!r} must be finite, got {v_term!r}"
                )
            row[outcome] = value / alpha - v_term + shift
        entries[ctx] = row
    convention = "zero context baseline" if baseline is None else "supplied context baseline"
    rewards = RewardTable(direction=direction, entries=entries, convention=convention)
    return CalibrationResult(
        rewards=rewards,
        context_values=context_values,
        excluded=tuple(excluded),
        alpha=alpha,
        interaction=table,
    )


def apply_gauge(
    rewards: RewardTable,
    values: Mapping[Assignment, float],
    shift: GaugeShift,
) -> tuple[RewardTable, dict[Assignment, float]]:
    """Shift rewards and context values by c(ctx); behavior is unchanged."""
    values = {as_assignment(k): float(v) for k, v in dict(values).items()}
    if set(values) != set(rewards.entries):
        raise ValidationError("context values and reward table cover different contexts")
    new_entries: dict[Assignment, dict[Assignment, float]] = {}
    new_values: dict[Assignment, float] = {}
    for ctx in rewards.contexts():
        c = shift.value(ctx)
        new_entries[ctx] = {o: r + c for o, r in rewards.entries[ctx].items()}
        new_values[ctx] = values[ctx] + c
    shifted = RewardTable(
        direction=rewards.direction, entries=new_entries, convention="gauge-shifted"
    )
    return shifted, new_values


@dataclass
class GaugeComparison:
    equivalent: bool
    max_residual: float
    witness: tuple[Assignment, Assignment] | None
    shifts: dict[Assignment, float] | None
    residuals: dict[tuple[Assignment, Assignment], float]


def gauge_equivalent(
    a: "tuple[RewardTable, EventValueFunction]",
    b: "tuple[RewardTable, EventValueFunction]",
    joint: JointTable,
    tol: float = 1e-10,
) -> GaugeComparison:
    """Decide whether two reward/terminal pairs lie in the same gauge class.

    True iff, on every context, the within-context differences of r + V
    across prior-supported outcomes agree within tol. On success the
    recovered per-context shift (b relative to a) is returned; on failure
    the witness names the worst-deviating (context, outcome) cell.
    """
    rewards_a, values_a = a
    rewards_b, values_b = b
    if rewards_a.direction != rewards_b.direction:
        raise CoverageMismatch(
            f"directions differ: {rewards_a.direction.tag} vs {rewards_b.direction.tag}"
        )
    if set(rewards_a.entries) != set(rewards_b.entries):
        raise CoverageMismatch("reward tables cover different context sets")
    direction = rewards_a.direction
    residuals: dict[tuple[Assignment, Assignment], float] = {}
    shifts: dict[Assignment, float] = {}
    max_residual = 0.0
    witness: tuple[Assignment, Assignment] | None = None
    for ctx in rewards_a.contexts():
        required = _supported_outcomes(joint, direction, ctx)
        for side, table in (("a", rewards_a), ("b", rewards_b)):
            missing = [o for o in required if o not in table.entries[ctx]]
            if missing:
                raise CoverageMismatch(
                    f"table {side} misses outcome {missing[0]!r} at context {ctx!r}"
                )
        diffs: dict[Assignment, float] = {}
        for outcome in required:
            event = outcome.union(ctx)
            g_a = rewards_a.entries[ctx][outcome] + float(values_a.value(event))
            g_b = rewards_b.entries[ctx][outcome] + float(values_b.value(event))
            diffs[outcome] = g_b - g_a
        if not diffs:
            shifts[ctx] = 0.0
            continue
        center = median(diffs.values())
        shifts[ctx] = center
        for outcome, d in diffs.items():
            r = abs(d - center)
            residuals[(ctx, outcome)] = r
            if r > max_residual:
                max_residual = r
                witness = (ctx, outcome)
    equivalent = max_residual <= tol
    return GaugeComparison(
        equivalent=equivalent,
        max_residual=max_residual,
        witness=None if equivalent else witness,
        shifts=shifts if equivalent else None,
        residuals=residuals,
    )


def _supported_outcomes(joint: JointTable, direction: Direction, ctx: Assignment) -> list[Assignment]:
    """Outcomes with positive posterior mass at ctx (the behaviorally live cells)."""
    reduced = _reduced(joint, direction)
    out = []
    for outcome in iter_group_assignments(reduced.group(direction.target)):
        if reduced.event_mass(outcome.union(ctx)) > 0:
            out.append(outcome)
    return out


def _log_normalizer(prior: DistVector, signal: Sequence[float]) -> tuple[list[float], float]:
    """The log-terms log p(x) + signal(x) and their log-normalizer.

    signal is aligned with the prior's outcomes, and so are the terms: -inf
    where p(x) = 0 or the signal is -inf. NaN or +inf at a supported outcome
    is a ValidationError.
    """
    if len(signal) != len(prior.probs):
        raise ValidationError(
            f"signal must have length {len(prior.probs)}, got {len(signal)}"
        )
    log_terms: list[float] = []
    for i, (p, v) in enumerate(zip(prior.probs, signal)):
        if p == 0:
            log_terms.append(-math.inf)
        elif math.isnan(v) or v == math.inf:
            raise ValidationError(f"signal at supported outcome {i} must be in [-inf, inf)")
        else:
            log_terms.append(math.log(p) + v)
    return log_terms, logsumexp(log_terms)


def check_admissibility(table: InteractionTable, joint: JointTable) -> dict[Assignment, float]:
    """Per-context |log sum_x P(x|base) exp(i(x))|; zero for any true interaction."""
    direction = table.direction
    residuals: dict[Assignment, float] = {}
    for ctx in table.contexts():
        prior = conditional(joint, direction.target, ctx.restrict(direction.base))
        row = table.values[ctx]
        signal = []
        for outcome, p in zip(prior.outcomes(), prior.probs):
            if p > 0 and outcome not in row:
                raise ValidationError(
                    f"interaction table misses prior-supported outcome {outcome!r} "
                    f"at context {ctx!r}"
                )
            signal.append(row.get(outcome, -math.inf))
        residuals[ctx] = abs(_log_normalizer(prior, signal)[1])
    return residuals


def construct_posterior(
    prior: DistVector,
    signal,
    tol_admit: float = 1e-8,
) -> DistVector:
    """Tilt the prior by an admissible interaction signal; exact renormalization.

    signal is aligned with the prior's outcomes; -inf empties a cell. Raises
    InadmissibleSignal when |log sum p exp(signal)| exceeds tol_admit.
    """
    return _posterior_and_residual(prior, signal, tol_admit)[0]


def _posterior_and_residual(prior: DistVector, signal, tol_admit: float) -> tuple[DistVector, float]:
    """construct_posterior's posterior together with its normalization residual."""
    log_terms, norm = _log_normalizer(prior, tuple(float(v) for v in signal))
    residual = abs(norm)
    if residual > tol_admit:
        raise InadmissibleSignal(
            f"signal violates normalization: residual {residual!r} > {tol_admit!r}"
        )
    weights = [math.exp(t - norm) for t in log_terms]
    total = fsum(weights)
    return DistVector(prior.over, tuple(w / total for w in weights)), residual
