"""JSON wire formats and deterministic serialization.

All emitted documents are rendered by a local writer: keys sorted, entry
lists in canonical (lexicographic assignment) order, numbers at 17
significant digits, nonfinite floats as quoted strings ("-inf" is the
interaction sentinel). Same inputs and flags therefore produce
byte-identical bytes. `_Shape` writes every entry list of a report or
artifact from one `%`-template per entry shape, filled with binding texts
that `_bindings` renders once per grid cell and depth and with raw floats,
or by columns through `format_float` where a float is nonfinite (`identify`'s
"-inf" interactions). `_table_text` writes the reward and interaction files
from rows of `_Split` indices, `_render` the headers around the lists, and
`dumps_report` serves library callers with the same bytes.

Both readers place a plain dict binding exactly its group's variables at the
sum of its labels' offsets in the group's grid (the joint reader each `assign`
of a document of plain dict entries with float `p`s, the row reader each
`context` and `outcome`). Any other binding or fault, after which the joint
reader reads the whole document again, and every binding of a values or
baseline file take the validating path, `_binding` then `_locate`, whose
error texts, exit codes and fault order are the contract; duplicate, mass
and total checks run on both paths.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .coherence import EventValueFunction
from .dist import Assignment, JointTable, VariableSpec, _finite, _trusted
from .errors import CoverageMismatch, SchemaError, SoftTiltError, ValidationError
from .identify import Direction, GaugeShift, InteractionTable, RewardTable, _split, _Split

if TYPE_CHECKING:
    from .countable import CountableFamily

JOINT_SUM_TOL = 1e-9
_MAX = int(1.7976931348623157e308)  # an int no larger in size converts to a finite float


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
    try:  # well-formed entries, read at once; on any fault the validating path reports it
        pairs = [(item["assign"], item["p"]) for item in mass_docs if type(item) is dict]
        if len(pairs) == len(mass_docs) and all(type(a) is dict and type(p) is float
                                                for a, p in pairs):
            return JointTable(specs, pairs, tol_norm=JOINT_SUM_TOL)
    except (KeyError, ValidationError):
        pass
    pairs = []
    for item in mass_docs:
        _require(isinstance(item, dict), "each mass entry must be an object")
        assign = _binding(item.get("assign"), "'assign'")
        p = _finite(item.get("p"), lambda: f"'p' at {Assignment(assign)} must be a finite number")
        pairs.append((assign, p))
    # JointTable checks labels, negative masses, duplicates and the total
    return JointTable(specs, pairs, tol_norm=JOINT_SUM_TOL)


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


@dataclass
class _Rows:
    """A reward or interaction document read into its direction's `_Split` indices:
    per context index, in the order the file first names them, the values in
    outcome-index order, None where absent; for rewards, V per full-group cell."""

    alpha: float | None
    direction: Direction
    split: _Split
    rows: dict[int, list]
    terminals: list | None


def _indices(joint: JointTable, s: _Split, direction: Direction, ctx, outcome) -> tuple[int, int]:
    """An entry's `_Split` indices on the validating path, whose texts are the contract."""
    _binding(ctx, "'context'")
    _binding(outcome, "'outcome'")
    (c_group, ci), (o_group, ti) = (_locate(joint, ctx, "'context'"),
                                    _locate(joint, outcome, "'outcome'"))
    _require(c_group == s.cond, lambda: (
        f"'context' must bind exactly {sorted(direction.conditioning)!r}, got {Assignment(ctx)}"
    ))
    _require(o_group == s.target, lambda: (
        f"'outcome' must bind exactly {sorted(direction.target)!r}, got {Assignment(outcome)}"
    ))
    return ci, ti


def _read_rows(doc, joint: JointTable, kind: str, fill_zero: bool = False) -> _Rows:
    """A "reward" or "interaction" document as rows, each `context` and `outcome`
    at the sum of its labels' offsets in its group's grid, or on any miss by
    `_indices`. A rewards file needs an entry at every prior-supported outcome of
    each positive-mass context it names, or with fill_zero gets r = V = 0 there."""
    rewards = kind == "reward"
    _require(isinstance(doc, dict), f"{kind} document must be an object")
    alpha = doc.get("alpha")
    if rewards or alpha is not None:
        alpha = _finite(alpha, "'alpha' must be a finite number")
        _require(alpha > 0, f"'alpha' must be > 0, got {alpha!r}")
    direction = direction_from_doc(doc, joint)
    s = _split(joint, direction)
    entry_docs = doc.get("entries")
    _require(isinstance(entry_docs, list), "'entries' must be an array")
    ctx_full, out_full, isfinite = s.ctx_full, s.out_full, math.isfinite
    c_offsets, o_offsets = joint._label_offsets(s.cond), joint._label_offsets(s.target)
    n_cond, n_target = len(s.cond), len(s.target)
    rows: dict[int, list] = {}
    terminals = [None] * len(s.m_full) if rewards else None
    for item in entry_docs:
        _require(isinstance(item, dict), "each entry must be an object")
        ctx, outcome = item.get("context"), item.get("outcome")
        ci = -1
        if type(ctx) is type(outcome) is dict and len(ctx) == n_cond and len(outcome) == n_target:
            try:
                ci = ti = 0
                for name, label in ctx.items():
                    ci += c_offsets[name][label]
                for name, label in outcome.items():
                    ti += o_offsets[name][label]
            except (KeyError, TypeError):  # an unknown or unhashable name or label
                ci = -1
        if ci < 0:
            ci, ti = _indices(joint, s, direction, ctx, outcome)
        row = rows.get(ci)
        if row is None:
            row = rows[ci] = [None] * len(out_full)
        if row[ti] is not None:
            raise SchemaError(f"duplicate entry at {s.contexts[ci]}/{s.outcomes[ti]}")
        # finite floats, and plain ints in the double range, are most values and skip `_number`
        if rewards:
            r, v = item.get("r"), item.get("V")
            if type(r) is not float or not isfinite(r):
                r = float(r) if type(r) is int and abs(r) <= _MAX else _finite(
                    r, lambda: f"'r' at {s.contexts[ci]}/{s.outcomes[ti]} must be a finite number")
            if type(v) is not float or not isfinite(v):
                v = float(v) if type(v) is int and abs(v) <= _MAX else _finite(
                    v, lambda: f"'V' at {s.contexts[ci]}/{s.outcomes[ti]} must be a finite number")
            row[ti], terminals[ctx_full[ci] + out_full[ti]] = r, v
            continue
        i = item.get("i")
        if type(i) is not float or not isfinite(i):
            if type(i) is int and abs(i) <= _MAX:
                i = float(i)
            else:
                i = -math.inf if i == "-inf" else _finite(i, lambda: (
                    f"'i' at {s.contexts[ci]}/{s.outcomes[ti]} must be a number or \"-inf\""))
        row[ti] = i
    for ci, row in rows.items() if rewards else ():
        if None not in row or not s.m_cond[ci]:
            continue  # a zero-mass context is handled at command level (skip or ZeroMassContext)
        for ti, p in enumerate(s.prior(s.ctx_base[ci]).probs):
            if p and row[ti] is None:
                if not fill_zero:
                    raise CoverageMismatch(
                        f"missing entry for outcome {s.outcomes[ti]} at context {s.contexts[ci]} "
                        "(pass --fill-zero to default missing entries to 0)"
                    )
                row[ti] = terminals[ctx_full[ci] + out_full[ti]] = 0.0
    return _Rows(alpha, direction, s, rows, terminals)


def reward_from_doc(doc, joint: JointTable, fill_zero: bool = False) -> LoadedRewards:
    table = _read_rows(doc, joint, "reward", fill_zero)
    s, direction = table.split, table.direction
    values = {s.events[cell]: v for cell, v in enumerate(table.terminals) if v is not None}
    return LoadedRewards(
        table.alpha, direction, RewardTable(direction, s.table(table.rows.items()), "external"),
        _trusted(EventValueFunction, _entries=values, _default=None),
    )


def interaction_from_doc(doc, joint: JointTable) -> tuple[float | None, InteractionTable]:
    table = _read_rows(doc, joint, "interaction")
    return table.alpha, InteractionTable(table.direction, table.split.table(table.rows.items()))


def _table_text(joint: JointTable, direction: Direction, alpha, rows, shape, values) -> str:
    """A reward or interaction document of rows, as `_read_rows` reads them: `shape`
    fills an entry per value, in canonical order, with context, outcome, *values(ci, ti, v)."""
    s = _split(joint, direction)
    header = direction_fields(direction)
    if alpha is not None:
        header["alpha"] = float(alpha)
    contexts, outcomes = _bindings(joint, s.cond, 3)[0], _bindings(joint, s.target, 3)[0]
    entries = [
        (contexts[ci], outcomes[ti], *values(ci, ti, rows[ci][ti]))
        for ci in s.order if ci in rows for ti in s.outcome_order if rows[ci][ti] is not None
    ]
    header["entries"] = shape(entries)
    return _render(header, 0)


# -------------------------------------------------- values and baselines

def _keyed(doc, what: str, joint: JointTable | None, key: str, field: str, entries=None):
    """A values or baseline document's entries, each binding `key` and a number `field`,
    as a dict of `Assignment` to float, and its default or None; a document without
    'entries' has the given ones."""
    _require(isinstance(doc, dict), f"{what} document must be an object")
    entry_docs = doc.get("entries", entries)
    _require(isinstance(entry_docs, list), "'entries' must be an array")
    pairs: dict[Assignment, float] = {}
    for item in entry_docs:
        _require(isinstance(item, dict), "each entry must be an object")
        at = _event(joint, item.get(key), f"'{key}'")
        _require(at not in pairs, lambda: f"duplicate {key} {at}")
        pairs[at] = _finite(item.get(field), lambda: f"'{field}' at {at} must be a finite number")
    default = doc.get("default")
    if default is not None:
        default = _finite(default, "'default' must be a finite number")
    return pairs, default


def values_from_doc(doc, joint: JointTable | None = None) -> EventValueFunction:
    return EventValueFunction(*_keyed(doc, "values", joint, "event", "v"))


def baseline_from_doc(doc, joint: JointTable | None = None) -> GaugeShift:
    return GaugeShift(*_keyed(doc, "baseline", joint, "context", "c", []))


# -------------------------------------------------------------- countable

def family_from_doc(doc) -> CountableFamily:
    from .countable import CountableFamily  # loaded by the countable subcommand alone

    _require(isinstance(doc, dict), "family document must be an object")
    prior = doc.get("prior")
    _require(isinstance(prior, dict), "'prior' must be an object")
    _require(prior.get("kind") == "geometric", "only 'geometric' priors are built in")
    q = _finite(prior.get("q"), "'prior.q' must be a finite number")
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
        value = _finite(payoff.get("value"), "'payoff.value' must be a finite number")
        return CountableFamily.geometric_constant(q, value)
    slope = _finite(payoff.get("slope"), "'payoff.slope' must be a finite number")
    intercept = payoff.get("intercept", 0.0)
    intercept = _finite(intercept, "'payoff.intercept' must be a finite number")
    return CountableFamily.geometric_linear(q, slope, intercept)


# ------------------------------------------------------------- rendering

def format_float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else f'"{x}"'  # "nan", "inf" or "-inf"


# what json.dumps does with a str under its defaults (ensure_ascii)
_quote = json.encoder.encode_basestring_ascii


class _Raw(str):
    """JSON text rendered already, which `_render` inserts as it is."""


class _Shape:
    """A list at `depth` of objects with the given keys, filled from rows of their values
    in key order (raw floats in the `floats` keys, texts in the others) as `_render` would:
    by one `%`-template over the sorted keys, or by columns where a float is nonfinite."""

    def __init__(self, depth: int, *keys: str, floats: Sequence[str] = ()):
        pad, inner, self.close = "  " * (depth + 1), "  " * (depth + 2), "\n" + "  " * depth + "]"
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self.pick = None if order == sorted(order) else itemgetter(*order)
        self.floats = [k for k, at in enumerate(order) if keys[at] in floats]

        def template(number: str) -> str:
            fields = ",\n".join(f"{inner}{_quote(keys[at]).replace('%', '%%')}: "
                                f"{number if keys[at] in floats else '%s'}" for at in order)
            return f"{pad}{{\n{fields}\n{pad}}}"

        self.template, self.text = template("%.17g"), template("%s")

    def __call__(self, rows) -> _Raw:
        rows = list(rows if self.pick is None else map(self.pick, rows))
        # a sum of finite floats is finite, or overflows to the checked fallback
        if all(math.isfinite(sum(map(itemgetter(k), rows))) for k in self.floats):
            items = [self.template % row for row in rows]
        else:  # by columns, each float column as `format_float` writes it
            columns = [map(format_float, c) if k in self.floats else c
                       for k, c in enumerate(zip(*rows))]
            items = [self.text % row for row in zip(*columns)]
        return _Raw("[\n" + ",\n".join(items) + self.close if items else "[]")


def _bindings(joint: JointTable, group: tuple[int, ...], depth: int) -> tuple[list, list]:
    """Each assignment over a group of variable indices as `_render` renders its
    dict at depth, by cell index, and the cell indices in canonical order
    (`JointTable._order`). Built from one line per label, once per joint, group
    and depth."""
    def build() -> tuple[list, list]:
        inner, close = "  " * (depth + 1), "\n" + "  " * depth + "}"
        specs = [joint.variables[v] for v in group]
        by_name = sorted(range(len(specs)), key=lambda k: specs[k].name)
        lines = [[f"{inner}{_quote(spec.name)}: {_quote(label)}" for label in spec.alphabet]
                 for spec in specs]
        texts = ["{\n" + ",\n".join([combo[k] for k in by_name]) + close
                 for combo in itertools.product(*lines)]
        return texts, joint._order(group)

    return joint._memo(("bindings", group, depth), build)


def dumps_report(doc) -> str:
    """Deterministic JSON: sorted keys, 17 significant digits, 2-space indent."""
    return _render(doc, 0)


def _render(obj, depth: int) -> str:
    # scalars first: they are most of a report, and miss the Mapping check slowly
    if isinstance(obj, str):
        return obj if type(obj) is _Raw else _quote(obj)
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
