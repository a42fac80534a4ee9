"""Posterior identification: interaction extraction and reward calibration.

Pinning the updated conditional to the tilt optimizer forces the scaled
within-context payoff to equal the conditional pointwise mutual information:
    alpha (r(x) + V(x, ctx) - V(ctx)) = i(x; observed | base).
That fixes rewards only up to a per-context constant (a gauge shift), so
calibration takes an explicit baseline convention for V(ctx), default 0.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from math import fsum
from typing import TYPE_CHECKING

from .dist import (
    Assignment,
    DistVector,
    JointTable,
    _finite,
    _trusted,
    as_assignment,
    iter_group_assignments,
    log_rational,
)
from .errors import (
    CoverageMismatch,
    InadmissibleSignal,
    InfiniteInteraction,
    MissingContext,
    ValidationError,
    ZeroMassContext,
)
from .tilt import _positive, logsumexp

IDENTITY_TOL = 1e-10  # default tolerance of an exact identity, such as gauge class or commutativity
ADMIT_TOL = 1e-8  # default admissibility tolerance of an interaction signal

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
        for name in ("target", "base", "observed"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
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


class _Split:
    """A direction's variable groups on one joint, as sorted variable indices.

    Holds the marginals over the full, conditioning, base and prior (base +
    target) groups as flat int lists, the offsets that join outcome and
    context indices into cell indices, and the canonical orders of both. The
    `Assignment` grids `events`, `bases`, `contexts` and `outcomes` and the
    indices `ctx_index` and `outcome_index` are built on first use, for
    library callers, error texts and lookups. Built once per joint and
    direction by `_split`.
    """

    def __init__(self, joint: JointTable, direction: Direction):
        target, base = joint._group(direction.target), joint._group(direction.base)
        cond = joint._group(direction.conditioning)
        full, prior = tuple(sorted(target + cond)), tuple(sorted(target + base))
        self.m_full, self.m_cond = joint._cells_over(full), joint._cells_over(cond)
        self.m_base, self.m_prior = joint._cells_over(base), joint._cells_over(prior)
        self.out_full, self.ctx_full = joint._offsets(full, target), joint._offsets(full, cond)
        self.out_prior, self.base_prior = joint._offsets(prior, target), joint._offsets(prior, base)
        observed = joint._offsets(cond, tuple(v for v in cond if v not in base))
        self.ctx_base = [0] * len(self.m_cond)  # base index of each context index
        for bi, at in enumerate(joint._offsets(cond, base)):
            for o in observed:
                self.ctx_base[at + o] = bi
        self.target, self.cond, self.full = target, cond, full
        self.target_specs = tuple(joint.variables[v] for v in target)
        self.order, self.outcome_order = joint._order(cond), joint._order(target)
        self._lazy = {name: [joint.variables[v] for v in group] for name, group in
                      (("events", full), ("bases", base), ("contexts", cond), ("outcomes", target))}
        self.conditioning = direction.conditioning
        self._priors: dict[int, DistVector] = {}

    def __getattr__(self, name: str):
        # called only while a grid or an index is unset
        if name in ("ctx_index", "outcome_index"):
            grid = self.contexts if name == "ctx_index" else self.outcomes
            value = {a: i for i, a in enumerate(grid)}
        elif name in ("events", "bases", "contexts", "outcomes"):
            value = tuple(iter_group_assignments(self._lazy[name]))
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def locate(self, ctx: Assignment) -> int:
        """Index of a context over exactly the conditioning group."""
        ci = self.ctx_index.get(ctx)
        if ci is None:
            raise ValidationError(
                f"context must bind exactly {sorted(self.conditioning)!r} with labels "
                f"of their alphabets, got {ctx}"
            )
        return ci

    def prior(self, bi: int) -> DistVector:
        """P(target | base) at base index bi, as `conditional` gives it."""
        vec = self._priors.get(bi)
        if vec is None:
            p_base, at = self.m_base[bi], self.base_prior[bi]
            if p_base == 0:
                raise ZeroMassContext(f"conditioning event {self.bases[bi]} has zero probability")
            probs = tuple(self.m_prior[at + o] / p_base for o in self.out_prior)
            vec = self._priors[bi] = _trusted(DistVector, over=self.target_specs, probs=probs)
        return vec

    def row(self, values: Mapping) -> list:
        """A row keyed by outcome as a list in outcome-index order, None where absent."""
        return [values.get(outcome) for outcome in self.outcomes]

    def table(self, rows) -> dict[Assignment, dict[Assignment, float]]:
        """(context index, row) pairs, rows as `row` gives them, keyed by context and outcome."""
        return {
            self.contexts[ci]: {o: v for o, v in zip(self.outcomes, row) if v is not None}
            for ci, row in rows
        }

    def aligned(self, ci: int, row: list, what: str) -> tuple[DistVector, list[float]]:
        """Context ci's prior and the row's values (a list in outcome-index order,
        None where absent) with 0.0 off the prior's support; the `what` row
        missing a supported outcome is a CoverageMismatch."""
        prior = self.prior(self.ctx_base[ci])
        values = [v if p else 0.0 for v, p in zip(row, prior.probs)]
        if None in values:
            raise CoverageMismatch(
                f"{what} misses prior-supported outcome {self.outcomes[values.index(None)]} "
                f"at context {self.contexts[ci]}"
            )
        return prior, values


def _split(joint: JointTable, direction: Direction) -> _Split:
    return joint._memo(("split", direction), lambda: _Split(joint, direction))


def _lookup(s: _Split, values: "EventValueFunction"):
    """The terminal value at a full-group cell index of a `_Split`, read once per cell
    when first asked for; values with only a default never build `s.events`."""
    if not values._entries and values.default is not None:
        default = values.default
        return lambda cell: default
    return functools.cache(lambda cell: float(values.value(s.events[cell])))


def _interactions(s: _Split):
    """(context index, row) per positive-mass context, in canonical context
    order; a row lists the values in outcome-index order, None where the prior
    conditional is zero."""
    for ci in s.order:
        p_ctx = s.m_cond[ci]
        if not p_ctx:
            continue
        bi = s.ctx_base[ci]
        p_base, base_at, ctx_at = s.m_base[bi], s.base_prior[bi], s.ctx_full[ci]
        row: list[float | None] = [None] * len(s.out_full)
        for ti, (o_prior, o_full) in enumerate(zip(s.out_prior, s.out_full)):
            p_prior = s.m_prior[base_at + o_prior]
            if not p_prior:
                continue  # prior conditional is zero: cell undefined, not -inf
            p_cell = s.m_full[ctx_at + o_full]
            row[ti] = log_rational(p_cell * p_base, p_ctx * p_prior) if p_cell else -math.inf
        yield ci, row


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
        entries = {}
        for k, v in dict(self.entries).items():
            ctx = as_assignment(k)
            entries[ctx] = _finite(v, lambda: f"gauge shift at {ctx} must be finite, got {v!r}")
        self.entries = entries
        if self.default is not None:
            self.default = _finite(
                self.default, lambda: f"gauge shift default must be finite, got {self.default!r}")

    @classmethod
    def constant(cls, value: float) -> "GaugeShift":
        return cls(entries={}, default=value)

    def value(self, context) -> float:
        ctx = as_assignment(context)
        if ctx in self.entries:
            return self.entries[ctx]
        if self.default is not None:
            return self.default
        raise MissingContext(f"gauge shift is undefined at context {ctx}")


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
    s = _split(joint, direction)
    return InteractionTable(direction=direction, values=s.table(_interactions(s)))


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
    on_infinite="error". A reward that overflows (a tiny alpha) is a ValidationError.
    """
    if on_infinite not in ("exclude", "error"):
        raise ValidationError(f"on_infinite must be 'exclude' or 'error', got {on_infinite!r}")
    s = _split(joint, direction)
    interaction = dict(_interactions(s))
    rows, values, excluded = _calibrate(
        s, interaction.items(), _lookup(s, terminal), alpha, baseline, on_infinite
    )
    convention = "zero context baseline" if baseline is None else "supplied context baseline"
    return CalibrationResult(
        rewards=RewardTable(direction, s.table(rows.items()), convention),
        context_values={s.contexts[ci]: v for ci, v in values.items()},
        excluded=tuple((s.contexts[ci], s.outcomes[ti]) for ci, ti in excluded),
        alpha=alpha,
        interaction=InteractionTable(direction, s.table(interaction.items())),
    )


def _calibrate(s: _Split, interactions, terminal, alpha, baseline=None, on_infinite="exclude"):
    """`calibrate_rewards` over `_interactions` rows, terminal(cell) being V at a full-group
    cell index: the reward rows (None where no reward is finite) and context values by
    context index, and the excluded (context index, outcome index) cells, in canonical order."""
    if not _positive(alpha):
        raise ValidationError(f"alpha must be finite and > 0, got {alpha!r}")
    rows: dict[int, list] = {}
    context_values: dict[int, float] = {}
    excluded: list[tuple[int, int]] = []
    for ci, interaction in interactions:
        at = s.ctx_full[ci]
        shift = context_values[ci] = baseline.value(s.contexts[ci]) if baseline is not None else 0.0
        row = rows[ci] = [None] * len(interaction)
        for ti in s.outcome_order:
            value = interaction[ti]
            if value is None:
                continue  # zero prior conditional
            if value == -math.inf:
                if on_infinite == "error":
                    raise InfiniteInteraction(f"posterior-null cell at context {s.contexts[ci]}, "
                                              f"outcome {s.outcomes[ti]}")
                excluded.append((ci, ti))
                continue
            # a non-finite shift or terminal value makes r non-finite, which fails below
            r = row[ti] = value / alpha - terminal(at + s.out_full[ti]) + shift
            if not math.isfinite(r):
                raise ValidationError(
                    f"calibrated reward at {s.contexts[ci]}/{s.outcomes[ti]} must be finite, "
                    f"got {r!r} at alpha {alpha!r}"
                )
    return rows, context_values, excluded


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
    tol: float = IDENTITY_TOL,
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
    s = _split(joint, rewards_a.direction)
    # lazy: a context that does not locate fails only after those before it are checked
    rows = ((s.locate(ctx), s.row(rewards_a.entries[ctx]), s.row(rewards_b.entries[ctx]))
            for ctx in rewards_a.contexts())
    residuals, shifts, max_residual, worst = _gauge(s, rows, _lookup(s, values_a),
                                                    _lookup(s, values_b))
    equivalent = max_residual <= tol
    pairs = {s.ctx_full[ci] + o: (s.contexts[ci], outcome)
             for ci in shifts for outcome, o in zip(s.outcomes, s.out_full)}
    return GaugeComparison(
        equivalent=equivalent,
        max_residual=max_residual,
        witness=None if equivalent else pairs.get(worst),
        shifts={s.contexts[ci]: c for ci, c in shifts.items()} if equivalent else None,
        residuals={pairs[cell]: r for cell, r in residuals.items()},
    )


def _gauge(s: _Split, rows, terminal_a, terminal_b):
    """`gauge_equivalent` over (context index, row of a, row of b) in canonical context order,
    given V at a full-group cell index: the residuals by that index, the shifts by context
    index, the largest residual and the first cell that attains it, or None."""
    from statistics import median  # only the gauge check loads it

    residuals: dict[int, float] = {}
    shifts: dict[int, float] = {}
    max_residual = 0.0
    witness: int | None = None
    for ci, row_a, row_b in rows:
        at = s.ctx_full[ci]
        # outcomes with positive posterior mass: the behaviorally live cells
        required = [(ti, at + o) for ti, o in enumerate(s.out_full) if s.m_full[at + o]]
        for side, row in (("a", row_a), ("b", row_b)):
            missing = [ti for ti, _ in required if row[ti] is None]
            if missing:
                raise CoverageMismatch(f"table {side} misses outcome {s.outcomes[missing[0]]} "
                                       f"at context {s.contexts[ci]}")
        diffs: dict[int, float] = {}
        for ti, cell in required:
            g_a = row_a[ti] + terminal_a(cell)
            g_b = row_b[ti] + terminal_b(cell)
            diffs[cell] = g_b - g_a
        center = median(diffs.values()) if diffs else 0.0
        shifts[ci] = center
        for cell, d in diffs.items():
            r = abs(d - center)
            residuals[cell] = r
            if r > max_residual:
                max_residual = r
                witness = cell
    return residuals, shifts, max_residual, witness


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
    s = _split(joint, table.direction)
    rows = ((s.locate(ctx), s.row(table.values[ctx])) for ctx in table.contexts())
    return {s.contexts[ci]: v for ci, v in _admissibility(s, rows).items()}


def _admissibility(s: _Split, rows) -> dict[int, float]:
    """`check_admissibility` over (context index, row) pairs of a `_Split`, by context index."""
    return {
        ci: abs(_log_normalizer(*s.aligned(ci, row, "interaction table"))[1]) for ci, row in rows
    }


def construct_posterior(
    prior: DistVector,
    signal,
    tol_admit: float = ADMIT_TOL,
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
