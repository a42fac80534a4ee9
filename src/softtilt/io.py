"""JSON wire formats and deterministic serialization.

All emitted documents are rendered by a local writer: keys sorted, entry
lists in canonical (lexicographic assignment) order, numbers at 17
significant digits, nonfinite floats as quoted strings ("-inf" is the
interaction sentinel). Same inputs and flags therefore produce
byte-identical bytes. Reward and interaction tables are written straight
to text, with the same bytes, each binding object rendered once per table.

The joint, reward and interaction readers resolve a binding (`assign`,
`context`, `outcome`) that is a plain dict of known names and labels by one
lookup per variable. Any other binding, and every binding of a values or
baseline file, takes the validating path, `_binding` then `_locate`, whose
error texts and exit codes are the contract; duplicate, mass and total checks
run on both.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from .coherence import EventValueFunction
from .countable import CountableFamily
from .dist import Assignment, JointTable, VariableSpec
from .errors import CoverageMismatch, SchemaError, SoftTiltError, ValidationError
from .identify import Direction, GaugeShift, InteractionTable, RewardTable, _split

JOINT_SUM_TOL = 1e-9


# ---------------------------------------------------------------- reading

def load_json(path: str | Path):
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    # bytes that are not UTF-8, an integer past the digit limit, nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _require(condition: bool, message) -> None:
    # message may be a callable, so that a per-entry message is built only on failure
    if not condition:
        raise SchemaError(message if isinstance(message, str) else message())


def _number(value, message) -> float:
    out = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:  # an integer literal beyond the double range
            out = math.inf
    _require(math.isfinite(out), message)
    return out


def _binding(obj, what: str) -> dict[str, str]:
    _require(isinstance(obj, dict) and obj, f"{what} must be a nonempty object")
    _require(
        all(isinstance(k, str) and isinstance(v, str) for k, v in obj.items()),
        f"{what} must map strings to strings",
    )
    return obj


def _locate(joint: JointTable, binding: dict[str, str], what: str) -> tuple[tuple[int, ...], int]:
    """The joint's variable indices and cell index for a binding checked to map
    strings to strings; an unknown variable or label is a SchemaError."""
    try:
        return joint._locate(Assignment._of(tuple(sorted(binding.items()))))
    except ValidationError as exc:
        raise SchemaError(f"{what}: {exc}") from None


def _event(joint: JointTable | None, obj, what: str) -> Assignment:
    """A binding as an `Assignment`, checked against the joint when one is given."""
    _binding(obj, what)
    if joint is not None:
        _locate(joint, obj, what)
    return Assignment._of(tuple(sorted(obj.items())))


def joint_from_doc(doc) -> JointTable:
    _require(isinstance(doc, dict), "joint document must be an object")
    var_docs = doc.get("variables")
    _require(isinstance(var_docs, list) and var_docs, "'variables' must be a nonempty array")
    specs = []
    for item in var_docs:
        _require(isinstance(item, dict), "each variable must be an object")
        name = item.get("name")
        alphabet = item.get("alphabet")
        _require(isinstance(name, str) and bool(name), "variable 'name' must be a nonempty string")
        _require(
            isinstance(alphabet, list) and alphabet and all(isinstance(a, str) for a in alphabet),
            f"variable {name!r}: 'alphabet' must be a nonempty array of strings",
        )
        specs.append(VariableSpec(name=name, alphabet=tuple(alphabet)))
    mass_docs = doc.get("mass")
    _require(isinstance(mass_docs, list), "'mass' must be an array")
    pairs = []
    for item in mass_docs:
        _require(isinstance(item, dict), "each mass entry must be an object")
        assign = _binding(item.get("assign"), "'assign'")
        p = _number(item.get("p"), lambda: f"'p' at {Assignment(assign)} must be a finite number")
        pairs.append((assign, p))
    # JointTable checks labels, negative masses, duplicates and the total
    return JointTable(specs, pairs, tol_norm=JOINT_SUM_TOL)


def joint_to_doc(joint: JointTable) -> dict:
    return {
        "variables": [
            {"name": s.name, "alphabet": list(s.alphabet)} for s in joint.variables
        ],
        "mass": [
            {"assign": dict(cell.items_sorted), "p": float(p)}
            for cell, p in joint.support()
        ],
    }


# ------------------------------------------------------------- directions

def segment_names(text: str, names: Sequence[str]) -> tuple[str, ...]:
    """Split a lowercase concatenation of variable names back into names.

    The split must be unique: a tag with no reading, or with two, is a
    SchemaError. Linear in len(text) times the number of names.
    """
    lowered: dict[str, str] = {}
    for name in names:
        low = name.lower()
        if low in lowered:
            raise SchemaError(f"variable names collide case-insensitively: {name!r}")
        lowered[low] = name
    ordered = sorted(lowered, key=len, reverse=True)
    n = len(text)
    # ways[i]: number of readings of text[i:], capped at 2
    ways = [0] * n + [1]
    for i in range(n - 1, -1, -1):
        ways[i] = min(2, sum(ways[i + len(low)] for low in ordered if text.startswith(low, i)))
    if not ways[0]:
        raise SchemaError(f"cannot segment {text!r} into variable names {sorted(names)!r}")

    def finish(i: int, out: list[str]) -> tuple[str, ...]:
        while i < n:
            low = next(low for low in ordered if text.startswith(low, i) and ways[i + len(low)])
            out.append(lowered[low])
            i += len(low)
        return tuple(out)

    reading = finish(0, [])
    if ways[0] == 1:
        return reading
    # a second reading leaves the first at its earliest branch point
    i = k = 0
    while True:
        fits = [low for low in ordered if text.startswith(low, i) and ways[i + len(low)]]
        if len(fits) > 1:
            break
        i += len(fits[0])
        k += 1
    other = finish(i + len(fits[1]), list(reading[:k]) + [lowered[fits[1]]])
    raise SchemaError(f"ambiguous tag {text!r}: reads as {reading!r} and {other!r}")


def direction_from_tag(tag: str, names: Sequence[str]) -> Direction:
    _require(isinstance(tag, str) and tag.count("_given_") == 1, f"bad direction tag {tag!r}")
    left, _, right = tag.partition("_given_")
    target = segment_names(left, names)
    cond = segment_names(right, names)
    _require(bool(target) and bool(cond), f"bad direction tag {tag!r}")
    # convention: the last conditioning group is the observed one
    try:
        return Direction(target=target, base=cond[:-1], observed=(cond[-1],))
    except ValidationError as exc:
        raise SchemaError(f"direction tag {tag!r}: {exc}") from exc


def direction_fields(direction: Direction) -> dict:
    return {
        "direction": direction.tag,
        "direction_groups": {
            "target": list(direction.target),
            "base": list(direction.base),
            "observed": list(direction.observed),
        },
    }


def direction_from_doc(doc: dict, joint: JointTable) -> Direction:
    groups = doc.get("direction_groups")
    if groups is not None:
        _require(isinstance(groups, dict), "'direction_groups' must be an object")
        for key in ("target", "base", "observed"):
            part = groups.get(key, [] if key == "base" else None)
            _require(
                isinstance(part, list) and all(isinstance(n, str) for n in part),
                f"'direction_groups.{key}' must be an array of strings",
            )
        direction = Direction(
            target=tuple(groups["target"]),
            base=tuple(groups.get("base", [])),
            observed=tuple(groups["observed"]),
        )
    else:
        tag = doc.get("direction")
        _require(isinstance(tag, str), "'direction' must be a string tag")
        direction = direction_from_tag(tag, joint.names)
    joint.group(direction.target + direction.base + direction.observed)
    return direction


# ------------------------------------------------- reward and interaction

@dataclass
class LoadedRewards:
    """A reward/terminal document bound to a joint."""

    alpha: float
    direction: Direction
    rewards: RewardTable
    terminals: EventValueFunction


def _entries(doc: dict, joint: JointTable, direction: Direction):
    """Yield (context index, outcome index, entry) for each entry of a reward or
    interaction document, its bindings checked against the joint and the
    direction; the indices are those of the direction's `_split`."""
    s = _split(joint, direction)
    entry_docs = doc.get("entries")
    _require(isinstance(entry_docs, list), "'entries' must be an array")
    seen: set[tuple[int, int]] = set()
    for item in entry_docs:
        _require(isinstance(item, dict), "each entry must be an object")
        ctx, outcome = item.get("context"), item.get("outcome")
        c_hit, o_hit = joint._index_of(ctx), joint._index_of(outcome)
        if c_hit is None or o_hit is None:
            _binding(ctx, "'context'")
            _binding(outcome, "'outcome'")
            c_hit, o_hit = _locate(joint, ctx, "'context'"), _locate(joint, outcome, "'outcome'")
        (c_group, ci), (o_group, ti) = c_hit, o_hit
        _require(c_group == s.cond, lambda: (
            f"'context' must bind exactly {sorted(direction.conditioning)!r}, got {Assignment(ctx)}"
        ))
        _require(o_group == s.target, lambda: (
            f"'outcome' must bind exactly {sorted(direction.target)!r}, got {Assignment(outcome)}"
        ))
        _require((ci, ti) not in seen, lambda: (
            f"duplicate entry at {Assignment(ctx)}/{Assignment(outcome)}"
        ))
        seen.add((ci, ti))
        yield ci, ti, item


def reward_from_doc(doc, joint: JointTable, fill_zero: bool = False) -> LoadedRewards:
    _require(isinstance(doc, dict), "reward document must be an object")
    alpha = _number(doc.get("alpha"), "'alpha' must be a finite number")
    _require(alpha > 0, f"'alpha' must be > 0, got {alpha!r}")
    direction = direction_from_doc(doc, joint)
    s = _split(joint, direction)
    entries: dict[Assignment, dict[Assignment, float]] = {}
    events: dict[Assignment, float] = {}
    for ci, ti, item in _entries(doc, joint, direction):
        ctx, outcome = s.contexts[ci], s.outcomes[ti]
        r = _number(item.get("r"), lambda: f"'r' at {ctx}/{outcome} must be a finite number")
        v = _number(item.get("V"), lambda: f"'V' at {ctx}/{outcome} must be a finite number")
        entries.setdefault(ctx, {})[outcome] = r
        events[s.events[s.ctx_full[ci] + s.out_full[ti]]] = v
    _fill_or_check_coverage(s, entries, events, fill_zero)
    rewards = RewardTable(direction=direction, entries=entries, convention="external")
    return LoadedRewards(
        alpha=alpha,
        direction=direction,
        rewards=rewards,
        terminals=EventValueFunction(events),
    )


def _fill_or_check_coverage(s, entries, events, fill_zero: bool) -> None:
    """Every prior-supported outcome in a positive-mass context needs an entry."""
    for ctx, row in entries.items():
        ci = s.ctx_index[ctx]
        if s.m_cond[ci] == 0:
            continue  # handled at command level (skip or ZeroMassContext)
        at = s.ctx_full[ci]
        for outcome, offset, p in zip(s.outcomes, s.out_full, s.prior(s.ctx_base[ci]).probs):
            if p == 0 or outcome in row:
                continue
            if not fill_zero:
                raise CoverageMismatch(
                    f"missing entry for outcome {outcome} at context {ctx} "
                    "(pass --fill-zero to default missing entries to 0)"
                )
            row[outcome] = 0.0
            events.setdefault(s.events[at + offset], 0.0)


def _table_text(direction: Direction, alpha: float | None, rows, names, values) -> str:
    """A reward or interaction document, rendered as `dumps_report` renders it: an
    entry per context and outcome of rows in canonical order, whose value fields
    `names` hold the floats values(context, outcome, value) returns, in that order.

    Each binding object is rendered once per table, and every entry comes from
    one template whose keys are sorted once."""
    header = direction_fields(direction)
    if alpha is not None:
        header["alpha"] = float(alpha)
    slots = {"context": "{0}", "outcome": "{1}"}
    slots.update((name, f"{{{at}}}") for at, name in enumerate(names, 2))
    template = "    {{\n" + ",\n".join(
        f"      {_quote(key)}: {slots[key]}" for key in sorted(slots)
    ) + "\n    }}"
    outcome_texts: dict[Assignment, str] = {}
    entries = []
    for ctx, row in sorted(rows.items(), key=lambda t: t[0].items_sorted):
        ctx_text = _render(dict(ctx.items_sorted), 3)
        for outcome in sorted(row, key=lambda a: a.items_sorted):
            outcome_text = outcome_texts.get(outcome)
            if outcome_text is None:
                outcome_text = outcome_texts[outcome] = _render(dict(outcome.items_sorted), 3)
            floats = map(format_float, values(ctx, outcome, row[outcome]))
            entries.append(template.format(ctx_text, outcome_text, *floats))
    fields = [f"  {_quote(key)}: {_render(value, 1)}" for key, value in sorted(header.items())]
    # "entries" sorts after every header key
    fields.append('  "entries": ' + ("[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"))
    return "{\n" + ",\n".join(fields) + "\n}"


def reward_to_text(alpha: float, rewards: RewardTable, terminals: EventValueFunction) -> str:
    def values(ctx, outcome, r):
        return r, float(terminals.value(outcome.union(ctx)))

    return _table_text(rewards.direction, alpha, rewards.entries, ("r", "V"), values)


def interaction_from_doc(doc, joint: JointTable) -> tuple[float | None, InteractionTable]:
    _require(isinstance(doc, dict), "interaction document must be an object")
    alpha = doc.get("alpha")
    if alpha is not None:
        alpha = _number(alpha, "'alpha' must be a finite number")
        _require(alpha > 0, f"'alpha' must be > 0, got {alpha!r}")
    direction = direction_from_doc(doc, joint)
    s = _split(joint, direction)
    values: dict[Assignment, dict[Assignment, float]] = {}
    for ci, ti, item in _entries(doc, joint, direction):
        ctx, outcome = s.contexts[ci], s.outcomes[ti]
        raw = item.get("i")
        if raw == "-inf":
            value = -math.inf
        else:
            value = _number(raw, lambda: f"'i' at {ctx}/{outcome} must be a number or \"-inf\"")
        values.setdefault(ctx, {})[outcome] = value
    return alpha, InteractionTable(direction=direction, values=values)


def interaction_to_text(table: InteractionTable, alpha: float | None = None) -> str:
    return _table_text(table.direction, alpha, table.values, ("i",), lambda ctx, outcome, i: (i,))


# -------------------------------------------------- values and baselines

def values_from_doc(doc, joint: JointTable | None = None) -> EventValueFunction:
    _require(isinstance(doc, dict), "values document must be an object")
    entry_docs = doc.get("entries")
    _require(isinstance(entry_docs, list), "'entries' must be an array")
    pairs = []
    seen: set[Assignment] = set()
    for item in entry_docs:
        _require(isinstance(item, dict), "each entry must be an object")
        event = _event(joint, item.get("event"), "'event'")
        _require(event not in seen, lambda: f"duplicate event {event}")
        seen.add(event)
        v = _number(item.get("v"), lambda: f"'v' at {event} must be a finite number")
        pairs.append((event, v))
    default = doc.get("default")
    if default is not None:
        default = _number(default, "'default' must be a finite number")
    return EventValueFunction(pairs, default=default)


def values_to_doc(values: EventValueFunction) -> dict:
    doc: dict = {
        "entries": [
            {"event": dict(event.items_sorted), "v": values.value(event)}
            for event in values.events()
        ]
    }
    if values.default is not None:
        doc["default"] = values.default
    return doc


def baseline_from_doc(doc, joint: JointTable | None = None) -> GaugeShift:
    _require(isinstance(doc, dict), "baseline document must be an object")
    entry_docs = doc.get("entries", [])
    _require(isinstance(entry_docs, list), "'entries' must be an array")
    entries: dict[Assignment, float] = {}
    for item in entry_docs:
        _require(isinstance(item, dict), "each entry must be an object")
        ctx = _event(joint, item.get("context"), "'context'")
        _require(ctx not in entries, lambda: f"duplicate context {ctx}")
        entries[ctx] = _number(item.get("c"), lambda: f"'c' at {ctx} must be a finite number")
    default = doc.get("default")
    if default is not None:
        default = _number(default, "'default' must be a finite number")
    return GaugeShift(entries=entries, default=default)


# -------------------------------------------------------------- countable

def family_from_doc(doc) -> CountableFamily:
    _require(isinstance(doc, dict), "family document must be an object")
    prior = doc.get("prior")
    _require(isinstance(prior, dict), "'prior' must be an object")
    _require(prior.get("kind") == "geometric", "only 'geometric' priors are built in")
    q = _number(prior.get("q"), "'prior.q' must be a finite number")
    _require(0.0 < q < 1.0, f"'prior.q' must lie in (0, 1), got {q!r}")
    payoff = doc.get("payoff")
    _require(isinstance(payoff, dict), "'payoff' must be an object")
    kind = payoff.get("kind")
    _require(kind in ("constant", "linear"), "only 'constant' and 'linear' payoffs are built in")
    bounds = doc.get("bounds")
    _require(isinstance(bounds, dict), "'bounds' must be an object")
    _require(bounds.get("tail") == "geometric", "'bounds.tail' must be 'geometric'")
    _require(
        bounds.get("payoff") == kind,
        f"'bounds.payoff' must match the payoff kind {kind!r}",
    )
    if kind == "constant":
        value = _number(payoff.get("value"), "'payoff.value' must be a finite number")
        return CountableFamily.geometric_constant(q, value)
    slope = _number(payoff.get("slope"), "'payoff.slope' must be a finite number")
    intercept = payoff.get("intercept", 0.0)
    intercept = _number(intercept, "'payoff.intercept' must be a finite number")
    return CountableFamily.geometric_linear(q, slope, intercept)


# ------------------------------------------------------------- rendering

def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if x == math.inf:
        return '"inf"'
    if x == -math.inf:
        return '"-inf"'
    return format(x, ".17g")


# what json.dumps does with a str under its defaults (ensure_ascii)
_quote = json.encoder.encode_basestring_ascii


def dumps_report(doc) -> str:
    """Deterministic JSON: sorted keys, 17 significant digits, 2-space indent."""
    return _render(doc, 0)


def _render(obj, depth: int) -> str:
    # scalars first: they are most of a report, and miss the Mapping check slowly
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise SoftTiltError(f"report keys must be strings, got {key!r}")
            parts.append(f"{inner}{_quote(key)}: {_render(obj[key], depth + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_render(item, depth + 1)}" for item in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise SoftTiltError(f"cannot serialize {type(obj).__name__} into a report")
