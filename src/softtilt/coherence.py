"""Cross-direction coherence of updates sharing one joint.

Updating X from (Y, Z) and updating Z from (Y, X) are consistent with a
single joint exactly when per-triple
    r_fwd(x | y,z) - V(y,z) = r_swp(z | y,x) - V(x,y),
with terminal values attached to unordered events so V(x,y) = V(y,x) holds
structurally. These checks detect violations; they never repair them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .dist import (
    Assignment,
    JointTable,
    as_assignment,
    conditional,
    iter_group_assignments,
    marginal,
    total_variation,
)
from .errors import (
    CoverageMismatch,
    MissingContext,
    MissingEventValue,
    ValidationError,
    ZeroMassContext,
)
from .identify import Direction, RewardTable, identify_interaction
from .tilt import SoftUpdateProblem, SolverConfig, solve_tilt


class EventValueFunction:
    """Real values keyed by information events (unordered binding sets).

    An event is a set of (variable, label) pairs; Assignment already
    canonicalizes ordering, so lookups are permutation-invariant by
    construction. Partial events are allowed (context-level values).
    """

    __slots__ = ("_entries", "_default")

    def __init__(
        self,
        entries: Mapping | Iterable[tuple] = (),
        default: float | None = None,
    ):
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        canonical: dict[Assignment, float] = {}
        for key, value in pairs:
            event = as_assignment(key)
            if event in canonical:
                raise ValidationError(f"event {event!r} given twice")
            v = float(value)
            if math.isnan(v):
                raise ValidationError(f"value at {event!r} must not be NaN")
            canonical[event] = v
        self._entries = canonical
        self._default = None if default is None else float(default)

    @classmethod
    def zero(cls) -> "EventValueFunction":
        return cls((), default=0.0)

    @property
    def default(self) -> float | None:
        return self._default

    def events(self) -> list[Assignment]:
        return sorted(self._entries, key=lambda a: a.items_sorted)

    def value(self, event) -> float:
        key = as_assignment(event)
        if key in self._entries:
            return self._entries[key]
        if self._default is not None:
            return self._default
        raise MissingEventValue(f"no value for event {key!r} and no default")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventValueFunction):
            return self._entries == other._entries and self._default == other._default
        return NotImplemented

    def __repr__(self) -> str:
        return f"EventValueFunction(entries={len(self._entries)}, default={self._default!r})"


@dataclass(frozen=True)
class DirectionPair:
    """A forward direction and its swap, sharing joint, values, and config."""

    joint: JointTable
    values: EventValueFunction
    config: SolverConfig
    forward: Direction

    def __post_init__(self) -> None:
        self.joint.group(self.forward.target + self.forward.base + self.forward.observed)

    @property
    def swapped(self) -> Direction:
        return self.forward.swapped()


def build_problem(
    joint: JointTable,
    values: EventValueFunction,
    config: SolverConfig,
    rewards: RewardTable,
    context,
) -> SoftUpdateProblem:
    """Assemble the single-context problem for a reward table's direction.

    The prior conditions on the base group only; terminal values are looked
    up on the full event (outcome united with context), which is what makes
    the two directions share terminals.
    """
    direction = rewards.direction
    ctx = as_assignment(context)
    if set(ctx) != set(direction.conditioning):
        raise ValidationError(
            f"context must bind exactly {sorted(direction.conditioning)!r}, got {ctx!r}"
        )
    if joint.event_mass(ctx) == 0:
        raise ZeroMassContext(f"conditioning event {ctx!r} has zero probability")
    prior = conditional(joint, direction.target, ctx.restrict(direction.base))
    row = rewards.entries.get(ctx)
    if row is None:
        raise ValidationError(f"reward table has no entries for context {ctx!r}")
    reward_vec = []
    terminal_vec = []
    for outcome, p in zip(prior.outcomes(), prior.probs):
        if p == 0:
            reward_vec.append(0.0)  # placeholder, ignored off support
            terminal_vec.append(0.0)
            continue
        if outcome not in row:
            raise ValidationError(
                f"missing reward entry for outcome {outcome!r} at context {ctx!r}"
            )
        reward_vec.append(row[outcome])
        terminal_vec.append(float(values.value(outcome.union(ctx))))
    return SoftUpdateProblem(
        prior=prior, reward=tuple(reward_vec), terminal=tuple(terminal_vec), config=config
    )


def commutativity_residual(
    rewards_fwd: RewardTable,
    values_fwd: Mapping[Assignment, float],
    rewards_swp: RewardTable,
    values_swp: Mapping[Assignment, float],
) -> dict[Assignment, float]:
    """Per-triple |(r_fwd - V_fwd) - (r_swp - V_swp)|.

    Both tables must cover the same triples; context-value maps must cover
    their tables' contexts.
    """
    fwd, swp = rewards_fwd.direction, rewards_swp.direction
    if fwd.swapped() != swp:
        raise CoverageMismatch(
            f"directions {fwd.tag!r} and {swp.tag!r} are not swaps of each other"
        )
    triples_fwd = _triples(rewards_fwd)
    triples_swp = _triples(rewards_swp)
    if set(triples_fwd) != set(triples_swp):
        only_f = sorted(set(triples_fwd) - set(triples_swp), key=lambda a: a.items_sorted)
        only_s = sorted(set(triples_swp) - set(triples_fwd), key=lambda a: a.items_sorted)
        example = (only_f or only_s)[0]
        raise CoverageMismatch(
            f"tables cover different triples ({len(only_f)} forward-only, "
            f"{len(only_s)} swapped-only; e.g. {example!r})"
        )
    values_fwd = {as_assignment(k): float(v) for k, v in dict(values_fwd).items()}
    values_swp = {as_assignment(k): float(v) for k, v in dict(values_swp).items()}
    residuals: dict[Assignment, float] = {}
    for triple in sorted(triples_fwd, key=lambda a: a.items_sorted):
        ctx_f = triple.restrict(fwd.conditioning)
        ctx_s = triple.restrict(swp.conditioning)
        if ctx_f not in values_fwd:
            raise MissingContext(f"forward context values miss {ctx_f!r}")
        if ctx_s not in values_swp:
            raise MissingContext(f"swapped context values miss {ctx_s!r}")
        lhs = rewards_fwd.entries[ctx_f][triple.restrict(fwd.target)] - values_fwd[ctx_f]
        rhs = rewards_swp.entries[ctx_s][triple.restrict(swp.target)] - values_swp[ctx_s]
        residuals[triple] = abs(lhs - rhs)
    return residuals


def _triples(table: RewardTable) -> list[Assignment]:
    out = []
    for ctx, row in table.entries.items():
        for outcome in row:
            out.append(ctx.union(outcome))
    return out


@dataclass
class OrderIndependenceReport:
    """Residual families for the order-independence audit of one joint."""

    identification: dict[str, dict[Assignment, float]]
    symmetry: dict[Assignment, float]
    commutativity: dict[Assignment, float]
    skipped: tuple[tuple[Assignment, str], ...]
    tol: float
    max_residual: float
    passed: bool


def order_independence_check(
    pair: DirectionPair,
    rewards_fwd: RewardTable,
    rewards_swp: RewardTable,
    tol: float = 1e-10,
) -> OrderIndependenceReport:
    """Audit both directions against the shared joint.

    Checks, per direction, that solving the assembled problems reproduces
    the joint's conditionals (round trip); that the two directions' extracted
    interactions agree per triple; and the per-triple commutativity residual
    with context values derived from the attained soft values. Zero-mass grid
    cells cannot be checked and are listed as skipped.
    """
    if rewards_fwd.direction != pair.forward:
        raise ValidationError("forward reward table does not match the pair's direction")
    if rewards_swp.direction != pair.swapped:
        raise ValidationError("swapped reward table does not match the pair's direction")
    identification: dict[str, dict[Assignment, float]] = {}
    context_values: dict[str, dict[Assignment, float]] = {}
    for direction, table in ((pair.forward, rewards_fwd), (pair.swapped, rewards_swp)):
        residuals: dict[Assignment, float] = {}
        v_map: dict[Assignment, float] = {}
        m_cond = marginal(pair.joint, direction.conditioning)
        for ctx, _ in m_cond.support():
            problem = build_problem(pair.joint, pair.values, pair.config, table, ctx)
            solution = solve_tilt(problem)
            bayes = conditional(pair.joint, direction.target, ctx)
            residuals[ctx] = total_variation(solution.optimizer, bayes)
            v_map[ctx] = solution.soft_value
        identification[direction.tag] = residuals
        context_values[direction.tag] = v_map

    table_fwd = identify_interaction(pair.joint, pair.forward)
    table_swp = identify_interaction(pair.joint, pair.swapped)
    symmetry: dict[Assignment, float] = {}
    skipped: list[tuple[Assignment, str]] = []
    for ctx in table_fwd.contexts():
        for outcome, value in table_fwd.values[ctx].items():
            triple = ctx.union(outcome)
            if value == -math.inf:
                skipped.append((triple, "zero joint mass"))
                continue
            ctx_s = triple.restrict(pair.swapped.conditioning)
            out_s = triple.restrict(pair.swapped.target)
            other = table_swp.values[ctx_s][out_s]
            symmetry[triple] = abs(value - other)

    commutativity = commutativity_residual(
        rewards_fwd,
        context_values[pair.forward.tag],
        rewards_swp,
        context_values[pair.swapped.tag],
    )

    grid_specs = pair.joint.group(
        pair.forward.target + pair.forward.base + pair.forward.observed
    )
    for cell in iter_group_assignments(grid_specs):
        if pair.joint.event_mass(cell) == 0 and (cell, "zero joint mass") not in skipped:
            skipped.append((cell, "zero joint mass"))

    all_residuals = [
        *(v for row in identification.values() for v in row.values()),
        *symmetry.values(),
        *commutativity.values(),
    ]
    max_residual = max(all_residuals, default=0.0)
    return OrderIndependenceReport(
        identification=identification,
        symmetry=symmetry,
        commutativity=commutativity,
        skipped=tuple(sorted(skipped, key=lambda item: item[0].items_sorted)),
        tol=tol,
        max_residual=max_residual,
        passed=max_residual <= tol,
    )
