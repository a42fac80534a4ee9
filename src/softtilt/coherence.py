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

from .dist import Assignment, DistVector, JointTable, _trusted, as_assignment, total_variation
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
    ci, row = s.locate(ctx), rewards.entries.get(ctx)
    return _problem(s, ci, None if row is None else s.row(row), _lookup(s, values), config)


def _lookup(s, values: EventValueFunction):
    """The terminal value at a full-group cell index of a `_Split`."""
    return lambda cell: float(values.value(s.events[cell]))


def _problem(s, ci: int, row, terminal, config: SolverConfig, checked=False) -> SoftUpdateProblem:
    """`build_problem` at context index ci of a `_Split`, given the context's reward
    row (in outcome-index order, None where absent) or None, and terminal(cell), the
    value at a full-group cell index; `checked` values were checked finite when read."""
    if s.m_cond[ci] == 0:
        raise ZeroMassContext(f"conditioning event {s.contexts[ci]} has zero probability")
    if row is None:
        raise CoverageMismatch(f"reward table has no entries for context {s.contexts[ci]}")
    prior, reward = s.aligned(ci, row, "reward table")
    at = s.ctx_full[ci]
    values = tuple([terminal(at + o) if p else 0.0 for o, p in zip(s.out_full, prior.probs)])
    fields = {"prior": prior, "reward": tuple(reward), "terminal": values, "config": config}
    return _trusted(SoftUpdateProblem, **fields) if checked else SoftUpdateProblem(**fields)


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
    rows = []
    for table in (rewards_fwd, rewards_swp):
        s = _split(pair.joint, table.direction)
        entries = table.entries.items()
        if any(ctx not in s.ctx_index or not row.keys() <= s.outcome_index.keys()
               for ctx, row in entries):
            raise CoverageMismatch(f"{table.direction.tag} table has entries off its grid")
        rows.append({s.ctx_index[ctx]: s.row(row) for ctx, row in entries})
    return _audit(pair.joint, pair.forward, pair.config, _lookup(s, pair.values), *rows, tol)


def _audit(joint, forward, config, terminal, rows_fwd, rows_swp, tol, checked=False):
    """`order_independence_check` of the reward rows of the forward direction and
    its swap by `_Split` context index; terminal and checked are `_problem`'s."""
    identification: dict[str, dict[Assignment, float]] = {}
    sides = []  # per direction: (context, r) by full-group cell index, and V by context
    interactions: list[dict[int, float]] = []  # per direction, keyed by full-group cell index
    for direction, rows in ((forward, rows_fwd), (forward.swapped(), rows_swp)):
        s = _split(joint, direction)
        residuals: dict[Assignment, float] = {}
        v_map: dict[Assignment, float] = {}
        for ci in s.order:
            p_ctx = s.m_cond[ci]
            if not p_ctx:
                continue
            ctx, at = s.contexts[ci], s.ctx_full[ci]
            solution = solve_tilt(_problem(s, ci, rows.get(ci), terminal, config, checked))
            probs = tuple([s.m_full[at + o] / p_ctx for o in s.out_full])
            bayes = _trusted(DistVector, over=s.target_specs, probs=probs)
            residuals[ctx] = total_variation(solution.optimizer, bayes)
            v_map[ctx] = solution.soft_value
        identification[direction.tag] = residuals
        sides.append(({
            s.ctx_full[ci] + o: (s.contexts[ci], r)
            for ci, row in rows.items() for o, r in zip(s.out_full, row) if r is not None
        }, v_map))
        interactions.append({
            s.ctx_full[ci] + o: v
            for ci, row in _interactions(s) for o, v in zip(s.out_full, row) if v is not None
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
