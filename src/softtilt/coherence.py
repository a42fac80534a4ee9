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

from .dist import Assignment, DistVector, JointTable, as_assignment, total_variation
from .errors import (
    CoverageMismatch,
    MissingContext,
    MissingEventValue,
    ValidationError,
    ZeroMassContext,
)
from .identify import IDENTITY_TOL, Direction, RewardTable, _interactions, _split
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
                raise ValidationError(f"event {event} given twice")
            v = float(value)
            if math.isnan(v):
                raise ValidationError(f"value at {event} must not be NaN")
            canonical[event] = v
        self._entries = canonical
        self._default = None if default is None else float(default)

    @classmethod
    def _of(cls, entries: dict, default: float | None = None) -> "EventValueFunction":
        """Trusted constructor: entries map distinct events to floats, none NaN."""
        values = object.__new__(cls)
        values._entries, values._default = entries, default
        return values

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
        raise MissingEventValue(f"no value for event {key} and no default")

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
            f"context must bind exactly {sorted(direction.conditioning)!r}, got {ctx}"
        )
    s = _split(joint, direction)
    return _problem(s, s.locate(ctx), rewards.entries.get(ctx), values, config)


def _problem(s, ci: int, row, values: EventValueFunction, config: SolverConfig) -> SoftUpdateProblem:
    """`build_problem` at context index ci of a `_Split`, given the context's reward row or None."""
    if s.m_cond[ci] == 0:
        raise ZeroMassContext(f"conditioning event {s.contexts[ci]} has zero probability")
    if row is None:
        raise CoverageMismatch(f"reward table has no entries for context {s.contexts[ci]}")
    prior, reward = s.aligned(ci, row, "reward table")
    at = s.ctx_full[ci]
    terminal = tuple([
        float(values.value(s.events[at + offset])) if p else 0.0
        for offset, p in zip(s.out_full, prior.probs)
    ])
    return SoftUpdateProblem(prior=prior, reward=tuple(reward), terminal=terminal, config=config)


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
        raise CoverageMismatch(f"directions {fwd.tag!r} and {swp.tag!r} are not swaps of each other")
    v_fwd, v_swp = (
        {as_assignment(k): float(v) for k, v in dict(m).items()} for m in (values_fwd, values_swp)
    )
    return _commutativity(_triples(rewards_fwd), v_fwd, _triples(rewards_swp), v_swp, lambda t: t)


def _triples(table: RewardTable) -> dict[Assignment, tuple[Assignment, float]]:
    """Each entry's full event, mapped to its context and reward."""
    return {ctx.union(o): (ctx, r) for ctx, row in table.entries.items() for o, r in row.items()}


def _cells(s, table: RewardTable) -> dict[int, tuple[Assignment, float]]:
    """Each entry's full-group cell index in a `_Split`, mapped to its context and reward."""
    try:
        return {
            s.ctx_full[s.ctx_index[ctx]] + s.out_full[s.outcome_index[o]]: (ctx, r)
            for ctx, row in table.entries.items() for o, r in row.items()
        }
    except KeyError:
        raise CoverageMismatch(f"{table.direction.tag} table has entries off its grid") from None


def _commutativity(fwd: dict, values_fwd, swp: dict, values_swp, event) -> dict[Assignment, float]:
    """Per-triple residuals of two maps of a triple's key to (context, r), and of the tables'
    context values V; event(key) is the triple's full event, which keys the result."""
    if fwd.keys() != swp.keys():
        only_f = sorted(map(event, fwd.keys() - swp.keys()), key=lambda a: a.items_sorted)
        only_s = sorted(map(event, swp.keys() - fwd.keys()), key=lambda a: a.items_sorted)
        example = (only_f or only_s)[0]
        raise CoverageMismatch(
            f"tables cover different triples ({len(only_f)} forward-only, "
            f"{len(only_s)} swapped-only; e.g. {example})"
        )
    residuals: dict[Assignment, float] = {}
    for key in sorted(fwd, key=lambda k: event(k).items_sorted):
        (ctx_f, r_f), (ctx_s, r_s) = fwd[key], swp[key]
        v_f, v_s = values_fwd.get(ctx_f), values_swp.get(ctx_s)
        if v_f is None:
            raise MissingContext(f"forward context values miss {ctx_f}")
        if v_s is None:
            raise MissingContext(f"swapped context values miss {ctx_s}")
        residuals[event(key)] = abs((r_f - v_f) - (r_s - v_s))
    return residuals


@dataclass
class OrderIndependenceReport:
    """Residual families for the order-independence audit of one joint."""

    identification: dict[str, dict[Assignment, float]]
    symmetry: dict[Assignment, float]
    commutativity: dict[Assignment, float]
    skipped: tuple[tuple[Assignment, str], ...]
    max_residual: float
    passed: bool


def order_independence_check(
    pair: DirectionPair,
    rewards_fwd: RewardTable,
    rewards_swp: RewardTable,
    tol: float = IDENTITY_TOL,
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
    sides = []  # per direction: (context, r) by full-group cell index, and V by context
    interactions: list[dict[int, float]] = []  # per direction, keyed by full-group cell index
    for direction, table in ((pair.forward, rewards_fwd), (pair.swapped, rewards_swp)):
        s = _split(pair.joint, direction)
        residuals: dict[Assignment, float] = {}
        v_map: dict[Assignment, float] = {}
        for ci in s.order:
            p_ctx = s.m_cond[ci]
            if not p_ctx:
                continue
            ctx, at = s.contexts[ci], s.ctx_full[ci]
            solution = solve_tilt(_problem(s, ci, table.entries.get(ctx), pair.values, pair.config))
            bayes = DistVector(s.target_specs, tuple(s.m_full[at + o] / p_ctx for o in s.out_full))
            residuals[ctx] = total_variation(solution.optimizer, bayes)
            v_map[ctx] = solution.soft_value
        identification[direction.tag] = residuals
        sides.append((_cells(s, table), v_map))
        interactions.append({
            s.ctx_full[ci] + s.out_full[ti]: v
            for ci, row in _interactions(s)
            for ti, v in row.items()
        })

    # both directions cover the same variables, so their cell indices agree
    events, m_full = s.events, s.m_full
    fwd_cells, swp_cells = interactions
    symmetry: dict[Assignment, float] = {}
    for cell, value in fwd_cells.items():
        if value > -math.inf:
            symmetry[events[cell]] = abs(value - swp_cells[cell])

    commutativity = _commutativity(*sides[0], *sides[1], events.__getitem__)

    skipped = [(event, "zero joint mass") for event, m in zip(events, m_full) if not m]

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
        max_residual=max_residual,
        passed=max_residual <= tol,
    )
