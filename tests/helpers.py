"""Seeded generators shared by the unit and acceptance suites.

Random joints follow the acceptance recipe: 3 variables, alphabet sizes
2-4, Dirichlet-like positive masses (normalized exponential draws). Masses
are converted to exact rationals before normalization so generated tables
sum to exactly one.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction

from softtilt import (
    Assignment,
    CertificateStatus,
    CoverageMismatch,
    DistVector,
    EventValueFunction,
    GaugeShift,
    InvalidBounds,
    JointTable,
    RewardTable,
    SchemaError,
    SoftUpdateProblem,
    SolverConfig,
    UndefinedPMI,
    ValidationError,
    VariableSpec,
    ZeroMassContext,
    iter_group_assignments,
)
from softtilt.countable import TruncationCertificate, _certificate
from softtilt.io import direction_from_doc

VAR_NAMES = ("X", "Y", "Z")
BITS = ("0", "1")


def sparse_joint() -> JointTable:
    """Binary joint where context (Y=1, Z=0) has zero mass and the cell
    (X=1, Y=0, Z=0) is empty while its prior conditional is positive."""
    specs = tuple(VariableSpec(name, BITS) for name in VAR_NAMES)
    mass = {
        Assignment({"X": "0", "Y": "0", "Z": "0"}): Fraction(2, 5),
        Assignment({"X": "0", "Y": "0", "Z": "1"}): Fraction(1, 10),
        Assignment({"X": "0", "Y": "1", "Z": "1"}): Fraction(3, 10),
        Assignment({"X": "1", "Y": "1", "Z": "1"}): Fraction(1, 10),
        Assignment({"X": "1", "Y": "0", "Z": "1"}): Fraction(1, 10),
    }
    return JointTable(specs, mass)


def overflow_joint() -> JointTable:
    """Binary joint whose ratio P(X=1|Y=0,Z=1) / P(X=1|Y=0) = (0.5 + 2c) / (2c)
    exceeds the largest double, where c is the subnormal 1e-320; the total
    1 + 2c is within the normalization tolerance."""
    specs = tuple(VariableSpec(name, BITS) for name in VAR_NAMES)
    return JointTable(specs, [
        ({"X": "1", "Y": "0", "Z": "1"}, 1e-320),
        ({"X": "0", "Y": "0", "Z": "1"}, 1e-320),
        ({"X": "0", "Y": "0", "Z": "0"}, 0.5),
        ({"X": "0", "Y": "1", "Z": "0"}, 0.5),
    ])


def joint_to_doc(joint: JointTable) -> dict:
    """A joint file's document for the table, as `softtilt.io.joint_from_doc` reads it."""
    return {
        "variables": [
            {"name": s.name, "alphabet": list(s.alphabet)} for s in joint.variables
        ],
        "mass": [
            {"assign": dict(cell.items_sorted), "p": float(p)}
            for cell, p in joint.support()
        ],
    }


def values_to_doc(values: EventValueFunction) -> dict:
    """A values file's document, as `softtilt.io.values_from_doc` reads it."""
    doc: dict = {
        "entries": [
            {"event": dict(event.items_sorted), "v": values.value(event)}
            for event in values.events()
        ]
    }
    if values.default is not None:
        doc["default"] = values.default
    return doc


def random_specs(rng: random.Random, min_k: int = 2, max_k: int = 4) -> tuple[VariableSpec, ...]:
    return tuple(
        VariableSpec(name, tuple(str(i) for i in range(rng.randint(min_k, max_k))))
        for name in VAR_NAMES
    )


def random_joint(rng: random.Random, min_k: int = 2, max_k: int = 4) -> JointTable:
    """Strictly positive random joint over 3 variables."""
    specs = random_specs(rng, min_k, max_k)
    cells = list(iter_group_assignments(specs))
    raw = [Fraction(rng.expovariate(1.0) + 1e-3).limit_denominator(10**9) for _ in cells]
    total = sum(raw)
    return JointTable(specs, [(c, w / total) for c, w in zip(cells, raw)])


# masses far below the normal range and the big masses they sit beside, so
# that ratios of products overflow a double or fall below its normal range
_TINY = (5e-324, 1e-320, 2.5e-310, 1e-300, 3e-200)
_BIG = ((1.0,), (0.5, 0.5), (0.75, 0.25), (0.625, 0.25, 0.125))


def sparse_random_joint(rng: random.Random, min_vars: int = 1) -> JointTable:
    """min_vars-4 variables of 1-3 labels each, about a third of the cells zero.

    The masses are one of: integers over one common total, exactly one or off
    it by about 1e-15 as JSON input can be; fractions with unrelated
    denominators that sum to exactly one; or doubles, a few big ones beside
    subnormal and tiny ones, within 1e-12 of one.
    """
    names = rng.sample(["W", "X", "Y", "Z"], rng.randint(min_vars, 4))
    specs = [VariableSpec(n, tuple(str(i) for i in range(rng.randint(1, 3)))) for n in names]
    cells = list(iter_group_assignments(specs))
    kind = rng.choice(("common", "lcm", "extreme"))
    if kind == "extreme":
        big = rng.choice([b for b in _BIG if len(b) <= len(cells)])
        masses = [0.0 if rng.random() < 0.35 else rng.choice(_TINY) for _ in cells]
        for i, p in zip(rng.sample(range(len(cells)), len(big)), big):
            masses[i] = p
        return JointTable(specs, list(zip(cells, masses)))
    if kind == "lcm":
        raw = [0 if rng.random() < 0.35 else Fraction(rng.randint(1, 999), rng.randint(1, 999))
               for _ in cells]
        raw[rng.randrange(len(raw))] = Fraction(rng.randint(1, 999), rng.randint(1, 999))
        total = sum(raw)
        return JointTable(specs, [(c, w / total) for c, w in zip(cells, raw)])
    raw = [0 if rng.random() < 0.35 else rng.randint(10**14, 10**15) for _ in cells]
    raw[rng.randrange(len(raw))] = rng.randint(10**14, 10**15)
    total = sum(raw) + rng.randint(-1, 1)
    return JointTable(specs, [(c, Fraction(w, total)) for c, w in zip(cells, raw)])


def random_direction(rng: random.Random, names):
    """A nonempty target, a possibly empty base and one observed variable;
    variables left over are summed out."""
    names = list(names)
    rng.shuffle(names)
    observed = names.pop()
    roles = [rng.choice(("target", "base", "out")) for _ in names]
    roles[0] = "target"
    target, base = ([n for n, r in zip(names, roles) if r == role] for role in ("target", "base"))
    return target, base, [observed]


def tag(target, conditioning) -> str:
    return f"{''.join(target).lower()}_given_{''.join(conditioning).lower()}"


def dirichlet_probs(rng: random.Random, k: int, allow_zero: bool = False) -> tuple[float, ...]:
    raw = [rng.expovariate(1.0) for _ in range(k)]
    if allow_zero and k > 1 and rng.random() < 0.3:
        raw[rng.randrange(k)] = 0.0
    total = sum(raw)
    if total == 0:
        raw[0] = 1.0
        total = 1.0
    probs = [w / total for w in raw]
    # the rest of 1; it rounds below 0 when the last draw is zero or tiny, and
    # 0 there leaves the sum a few ulps above 1, well within DistVector's tolerance
    probs[-1] = max(0.0, 1.0 - sum(probs[:-1]))
    return tuple(probs)


def outcome_specs(k: int) -> tuple[VariableSpec, ...]:
    return (VariableSpec("X", tuple(str(i) for i in range(k))),)


def random_problem(
    rng: random.Random,
    max_k: int = 6,
    allow_zero_prior: bool = True,
) -> SoftUpdateProblem:
    """Random single-context problem: |r|, |V| <= 5, alpha log-uniform in [0.1, 10]."""
    k = rng.randint(2, max_k)
    prior = DistVector(outcome_specs(k), dirichlet_probs(rng, k, allow_zero=allow_zero_prior))
    reward = tuple(rng.uniform(-5.0, 5.0) for _ in range(k))
    terminal = tuple(rng.uniform(-5.0, 5.0) for _ in range(k))
    alpha = 10.0 ** rng.uniform(-1.0, 1.0)
    return SoftUpdateProblem(
        prior=prior, reward=reward, terminal=terminal, config=SolverConfig(alpha=alpha)
    )


def grid_problem(rng: random.Random) -> SoftUpdateProblem:
    """Two-outcome problems whose optimizer stays well inside the simplex.

    With prior in [0.2, 0.8], |r|, |V| <= 0.25 and alpha in [0.5, 2], the
    optimizer's first coordinate stays in (0.1, 0.9), so a pitch-1e-3 grid
    sits within 5e-4 of it and the objective gap (about KL/alpha, locally
    quadratic with curvature 1/(2 q (1-q) alpha)) stays below 1e-5.
    """
    u = rng.uniform(0.2, 0.8)
    prior = DistVector(outcome_specs(2), (u, 1.0 - u))
    reward = tuple(rng.uniform(-0.25, 0.25) for _ in range(2))
    terminal = tuple(rng.uniform(-0.25, 0.25) for _ in range(2))
    alpha = rng.uniform(0.5, 2.0)
    return SoftUpdateProblem(
        prior=prior, reward=reward, terminal=terminal, config=SolverConfig(alpha=alpha)
    )


def random_candidate(rng: random.Random, problem: SoftUpdateProblem) -> DistVector:
    """Random distribution supported inside the prior's support."""
    k = len(problem.prior.probs)
    raw = [rng.expovariate(1.0) if p > 0 else 0.0 for p in problem.prior.probs]
    total = sum(raw)
    probs = [w / total for w in raw]
    live = [i for i in range(k) if probs[i] > 0]
    probs[live[-1]] += 1.0 - sum(probs)
    return DistVector(problem.prior.over, tuple(probs))


def random_terminals(rng: random.Random, joint: JointTable, scale: float = 2.0) -> EventValueFunction:
    """Terminal values on every full cell, keyed by unordered event."""
    return EventValueFunction(
        {cell: rng.uniform(-scale, scale) for cell in iter_group_assignments(joint.variables)}
    )


def random_baseline(rng: random.Random, joint: JointTable, conditioning, scale: float = 2.0) -> GaugeShift:
    ctxs = iter_group_assignments(joint.group(conditioning))
    return GaugeShift(entries={ctx: rng.uniform(-scale, scale) for ctx in ctxs})


def contexts_of(joint: JointTable, names) -> list[Assignment]:
    return sorted(iter_group_assignments(joint.group(names)), key=lambda a: a.items_sorted)


# Plain scanning reference for the table kernel: every query sums over every
# cell, with no memo. softtilt.dist must agree with it exactly.

def ref_event_mass(joint: JointTable, event) -> Fraction:
    items = Assignment(event).items_sorted
    total = Fraction(0)
    for cell, p in joint.masses().items():
        if all(cell[name] == label for name, label in items):
            total += p
    return total


def ref_marginal(joint: JointTable, keep) -> dict[Assignment, Fraction]:
    kept = [s.name for s in joint.group(keep)]
    out: dict[Assignment, Fraction] = {}
    for cell, p in joint.masses().items():
        key = cell.restrict(kept)
        out[key] = out.get(key, Fraction(0)) + p
    return out


def ref_conditional(joint: JointTable, target, context) -> tuple[float, ...]:
    ctx = Assignment(context)
    ctx_mass = ref_event_mass(joint, ctx)
    if ctx_mass == 0:
        raise ZeroMassContext(f"conditioning event {ctx!r} has zero probability")
    return tuple(
        float(ref_event_mass(joint, outcome.union(ctx)) / ctx_mass)
        for outcome in iter_group_assignments(joint.group(target))
    )


def ref_pmi(joint: JointTable, x, z, y) -> float:
    ex, ez, ey = Assignment(x), Assignment(z), Assignment(y)
    p_y = ref_event_mass(joint, ey)
    p_yz = ref_event_mass(joint, ey.union(ez))
    if p_y == 0 or p_yz == 0:
        raise ZeroMassContext(f"P(y)=0 or P(y,z)=0 for y={ey!r}, z={ez!r}")
    p_xy = ref_event_mass(joint, ex.union(ey))
    if p_xy == 0:
        raise UndefinedPMI(f"P(x|y)=0 for x={ex!r}, y={ey!r}")
    p_xyz = ref_event_mass(joint, ex.union(ey).union(ez))
    if p_xyz == 0:
        return -math.inf
    ratio = (p_xyz * p_y) / (p_yz * p_xy)
    try:
        x = float(ratio)
    except OverflowError:
        x = math.inf
    if sys.float_info.min <= x < math.inf:
        return math.log(x)
    # beyond the normal range: the logs of the lowest-terms numerator and denominator
    return math.log(ratio.numerator) - math.log(ratio.denominator)


def ref_rewards(joint: JointTable, direction, terminals: EventValueFunction, alpha) -> RewardTable:
    """Rewards i/alpha - V under the zero baseline, i from `ref_pmi`, on every
    positive-mass context; outcomes of zero prior are absent, and posterior-null
    cells are left out, as calibration excludes them."""
    outcomes = list(iter_group_assignments(joint.group(direction.target)))
    entries = {}
    for ctx in contexts_of(joint, direction.conditioning):
        if not ref_event_mass(joint, ctx):
            continue
        row = entries[ctx] = {}
        for outcome in outcomes:
            try:
                i = ref_pmi(joint, outcome, ctx.restrict(direction.observed),
                            ctx.restrict(direction.base))
            except UndefinedPMI:
                continue  # zero prior conditional
            if i > -math.inf:
                row[outcome] = i / alpha - float(terminals.value(outcome.union(ctx))) + 0.0
    return RewardTable(direction, entries)


def ref_gauge(a, b, joint: JointTable):
    """The gauge comparison of two (RewardTable, EventValueFunction) pairs, keyed
    by Assignment. Per context in canonical order, over the outcomes of positive
    joint mass in alphabet-product order (last variable fastest), it takes the
    differences (r_b + V_b) - (r_a + V_a), their median as the context's shift,
    and each difference's distance from it as the residual. Returns the
    residuals by (context, outcome), the shifts by context, the largest residual
    and the first (context, outcome) that attains it, or None."""
    (rewards_a, values_a), (rewards_b, values_b) = a, b
    if set(rewards_a.entries) != set(rewards_b.entries):
        raise CoverageMismatch("reward tables cover different context sets")
    outcomes = list(iter_group_assignments(joint.group(rewards_a.direction.target)))
    residuals, shifts = {}, {}
    max_residual, witness = 0.0, None
    for ctx in sorted(rewards_a.entries, key=lambda c: c.items_sorted):
        live = [o for o in outcomes if ref_event_mass(joint, o.union(ctx))]
        for side, table in (("a", rewards_a), ("b", rewards_b)):
            missing = [o for o in live if o not in table.entries[ctx]]
            if missing:
                raise CoverageMismatch(f"table {side} misses outcome {missing[0]} at context {ctx}")
        diffs = {}
        for outcome in live:
            event = outcome.union(ctx)
            g_a = rewards_a.entries[ctx][outcome] + float(values_a.value(event))
            g_b = rewards_b.entries[ctx][outcome] + float(values_b.value(event))
            diffs[outcome] = g_b - g_a
        if not diffs:
            shifts[ctx] = 0.0
            continue
        shifts[ctx] = center = statistics.median(diffs.values())
        for outcome, d in diffs.items():
            residuals[ctx, outcome] = r = abs(d - center)
            if r > max_residual:
                max_residual, witness = r, (ctx, outcome)
    return residuals, shifts, max_residual, witness


def ref_table_doc(direction, alpha, rows, fields) -> dict:
    """A reward or interaction document as a plain dict for `dumps_report`: the
    direction's tag and groups, alpha when given, and an entry per context and
    outcome of rows, in canonical order, holding fields(context, outcome, value)."""
    doc = {
        "direction": direction.tag,
        "direction_groups": {
            "target": list(direction.target),
            "base": list(direction.base),
            "observed": list(direction.observed),
        },
        "entries": [],
    }
    if alpha is not None:
        doc["alpha"] = alpha
    for ctx in sorted(rows, key=lambda a: a.items_sorted):
        for outcome in sorted(rows[ctx], key=lambda a: a.items_sorted):
            entry = {"context": dict(ctx.items_sorted), "outcome": dict(outcome.items_sorted)}
            entry.update(fields(ctx, outcome, rows[ctx][outcome]))
            doc["entries"].append(entry)
    return doc


def ref_joint_doc(doc) -> tuple[dict[Assignment, Fraction], int, Fraction]:
    """A joint document read entry by entry with `Fraction` masses: the nonzero cells
    by full assignment, the lcm of the entries' denominators, and the total. Faults
    raise SchemaError with the reader's texts, in its order: the document's and
    each variable's shape; each mass entry's shape, in entry order; distinct
    variable names; then per entry, in order, its names and labels (sorted by
    name), the first variable it leaves unbound, its sign and whether it repeats
    a cell; last the total, against the tolerance 1e-9."""
    if not isinstance(doc, dict):
        raise SchemaError("joint document must be an object")
    variables = doc.get("variables")
    if not isinstance(variables, list) or not variables:
        raise SchemaError("'variables' must be a nonempty array")
    names, alphabets = [], {}
    for item in variables:
        if not isinstance(item, dict):
            raise SchemaError("each variable must be an object")
        name, alphabet = item.get("name"), item.get("alphabet")
        if not isinstance(name, str) or not name:
            raise SchemaError("variable 'name' must be a nonempty string")
        if (not isinstance(alphabet, list) or not alphabet
                or not all(isinstance(a, str) for a in alphabet)):
            raise SchemaError(f"variable {name!r}: 'alphabet' must be a nonempty array of strings")
        if len(set(alphabet)) != len(alphabet):
            raise SchemaError(f"variable {name!r} has repeated labels")
        names.append(name)
        alphabets[name] = set(alphabet)
    entries = doc.get("mass")
    if not isinstance(entries, list):
        raise SchemaError("'mass' must be an array")
    shaped = []
    for item in entries:
        if not isinstance(item, dict):
            raise SchemaError("each mass entry must be an object")
        assign, p = item.get("assign"), item.get("p")
        if not isinstance(assign, dict) or not assign:
            raise SchemaError("'assign' must be a nonempty object")
        if not all(isinstance(k, str) and isinstance(v, str) for k, v in assign.items()):
            raise SchemaError("'assign' must map strings to strings")
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            p = math.nan
        try:
            p = float(p)
        except OverflowError:
            p = math.inf
        if not math.isfinite(p):
            raise SchemaError(f"'p' at {Assignment(assign)} must be a finite number")
        shaped.append((assign, p))
    if len(set(names)) != len(names):
        raise SchemaError("variable names must be distinct")
    cells: dict[Assignment, Fraction] = {}
    for assign, p in shaped:
        for name, label in sorted(assign.items()):
            if name not in alphabets:
                raise SchemaError(f"unknown variable {name!r}")
            if label not in alphabets[name]:
                raise SchemaError(f"label {label!r} is not in the alphabet of {name!r}")
        cell = Assignment(assign)
        unbound = [name for name in names if name not in assign]
        if unbound:
            raise SchemaError(f"assignment {cell} does not bind {unbound[0]!r}")
        if p < 0:
            raise SchemaError(f"negative mass {p!r} at {cell}")
        if cell in cells:
            raise SchemaError(f"duplicate assignment {cell}")
        cells[cell] = Fraction(p)
    total = sum(cells.values(), Fraction(0))
    if abs(total - 1) > Fraction(1e-9):
        raise SchemaError(f"masses sum to {float(total)!r}, off 1 by more than 1e-09")
    den = math.lcm(*(m.denominator for m in cells.values()))
    return {cell: m for cell, m in cells.items() if m}, den, total


def _ref_value(value) -> float | None:
    """A JSON number as a finite float, or None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def ref_rows(doc, joint: JointTable, kind: str, fill_zero: bool = False):
    """A "reward" or "interaction" document read entry by entry on the validating
    path only: alpha, the direction, the values by context (in the order the file
    first names them) and outcome, and for rewards V by full event, else None.
    Faults raise the reader's errors with its texts, in its order: per entry, in
    order, its shape; the shapes of its `context` then `outcome`; their names and
    labels (each sorted by name); the variables each binds; a repeated cell; its
    values. Last, a rewards file misses no prior-supported outcome (in grid order)
    at a positive-mass context (in the order first named), or with fill_zero gets
    r = V = 0 there."""
    rewards = kind == "reward"
    if not isinstance(doc, dict):
        raise SchemaError(f"{kind} document must be an object")
    alpha = doc.get("alpha")
    if rewards or alpha is not None:
        alpha = _ref_value(alpha)
        if alpha is None:
            raise SchemaError("'alpha' must be a finite number")
        if not alpha > 0:
            raise SchemaError(f"'alpha' must be > 0, got {alpha!r}")
    direction = direction_from_doc(doc, joint)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise SchemaError("'entries' must be an array")
    alphabets = {s.name: s.alphabet for s in joint.variables}
    groups = (("'context'", "context", direction.conditioning),
              ("'outcome'", "outcome", direction.target))
    rows: dict[Assignment, dict[Assignment, float]] = {}
    terminals: dict[Assignment, float] | None = {} if rewards else None
    for item in entries:
        if not isinstance(item, dict):
            raise SchemaError("each entry must be an object")
        for what, key, _ in groups:
            obj = item.get(key)
            if not isinstance(obj, dict) or not obj:
                raise SchemaError(f"{what} must be a nonempty object")
            if not all(isinstance(k, str) and isinstance(v, str) for k, v in obj.items()):
                raise SchemaError(f"{what} must map strings to strings")
        for what, key, _ in groups:
            for name, label in sorted(item[key].items()):
                if name not in alphabets:
                    raise SchemaError(f"{what}: unknown variable {name!r}")
                if label not in alphabets[name]:
                    raise SchemaError(f"{what}: label {label!r} is not in the alphabet of {name!r}")
        for what, key, names in groups:
            if set(item[key]) != set(names):
                raise SchemaError(f"{what} must bind exactly {sorted(names)!r}, "
                                  f"got {Assignment(item[key])}")
        ctx, outcome = Assignment(item["context"]), Assignment(item["outcome"])
        row = rows.setdefault(ctx, {})
        if outcome in row:
            raise SchemaError(f"duplicate entry at {ctx}/{outcome}")
        if rewards:
            for field in ("r", "V"):
                if _ref_value(item.get(field)) is None:
                    raise SchemaError(f"'{field}' at {ctx}/{outcome} must be a finite number")
            row[outcome] = _ref_value(item["r"])
            terminals[ctx.union(outcome)] = _ref_value(item["V"])
            continue
        i = -math.inf if item.get("i") == "-inf" else _ref_value(item.get("i"))
        if i is None:
            raise SchemaError(f"'i' at {ctx}/{outcome} must be a number or \"-inf\"")
        row[outcome] = i
    outcomes = list(iter_group_assignments(joint.group(direction.target)))
    for ctx, row in rows.items() if rewards else ():
        if not ref_event_mass(joint, ctx):
            continue
        base = ctx.restrict(direction.base)
        for outcome in outcomes:
            if outcome not in row and ref_event_mass(joint, outcome.union(base)):
                if not fill_zero:
                    raise CoverageMismatch(
                        f"missing entry for outcome {outcome} at context {ctx} "
                        "(pass --fill-zero to default missing entries to 0)"
                    )
                row[outcome] = terminals[ctx.union(outcome)] = 0.0
    return alpha, direction, rows, terminals


# Plain per-term reference for the countable kernel: the term-by-term scan
# and the generator logsumexp that softtilt.countable and softtilt.tilt must
# agree with bit for bit.

def ref_logsumexp(values) -> float:
    xs = list(values)
    for x in xs:
        if math.isnan(x) or x == math.inf:
            raise ValidationError(f"logsumexp requires values in [-inf, inf), got {x!r}")
    if not xs:
        return -math.inf
    m = max(xs)
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(x - m) for x in xs if x > -math.inf))


def ref_geometric_tail(q: float, slope: float, intercept: float, n: int) -> tuple[Decimal, Decimal]:
    """The sums over m > n and over m <= n of the terms (1-q) q^m e^(slope m +
    intercept), for slope + ln q < 0, at 60 digits: the exact tail and partial
    sum at n of a built-in geometric family."""
    with localcontext(Context(prec=60, Emin=MIN_EMIN, Emax=MAX_EMAX)):
        one_minus_q = 1 - Fraction(q)
        head = Decimal(one_minus_q.numerator) / one_minus_q.denominator * Decimal(intercept).exp()
        log_ratio = Decimal(slope) + Decimal(q).ln()
        x, gap = ((n + 1) * log_ratio).exp(), 1 - log_ratio.exp()
        return head * x / gap, head * (1 - x) / gap


def ref_truncate(
    family, eps_tail, start, max_doublings, explosion_log, exact_tail=None
) -> tuple[TruncationCertificate, list[float]]:
    """softtilt.countable._truncate as a scan, returning the certificate and the
    log-terms; the schedule and eps_tail must be valid.

    exact_tail(n), when given, returns the exact tail and partial sum at n, as
    `ref_geometric_tail` does: a checkpoint the family's tail bound certifies
    is then 'finite' only if that tail is below eps_tail times that partial
    sum, and reports that tail as its bound."""
    log_terms: list[float] = []
    prev_bound, prev_term, run = math.inf, None, None
    for k in range(max_doublings + 1):
        n_stop = start << k
        while len(log_terms) <= n_stop:
            n = len(log_terms)
            lp = float(family.log_prior_mass(n))
            if math.isnan(lp) or lp == math.inf:
                raise ValidationError(f"log prior mass at n={n} must be in [-inf, inf), got {lp!r}")
            if lp == -math.inf:
                log_terms.append(-math.inf)
                continue
            s = float(family.payoff(n))
            if math.isnan(s) or s == math.inf:
                raise ValidationError(f"payoff at n={n} must be in [-inf, inf), got {s!r}")
            log_terms.append(lp + s)
        log_partial = ref_logsumexp(log_terms)
        bound = float(family.tail_bound(n_stop))
        if math.isnan(bound) or bound < 0:
            raise InvalidBounds(f"tail bound at N={n_stop} must be >= 0, got {bound!r}")
        if bound > prev_bound:
            raise InvalidBounds(
                f"tail bound increased along the schedule: {prev_bound!r} -> {bound!r} "
                f"at N={n_stop}"
            )
        prev_bound = bound
        status = CertificateStatus.INCONCLUSIVE
        if log_partial > -math.inf and (
            bound == 0.0 or (bound > 0.0 and math.log(bound) < math.log(eps_tail) + log_partial)
        ):
            status = CertificateStatus.FINITE
            if exact_tail is not None:
                bound, partial = exact_tail(n_stop)
                if not bound < Decimal(eps_tail) * partial:
                    status = CertificateStatus.INCONCLUSIVE
        elif (
            bound == math.inf
            and log_partial > explosion_log
            and log_terms[n_stop] > -math.inf
            and prev_term is not None
            and log_terms[n_stop] >= prev_term - 1e-12
        ):
            status = CertificateStatus.DIVERGED
        prev_term = log_terms[n_stop]
        run = _certificate(status, n_stop, log_partial, bound), log_terms
        if status is not CertificateStatus.INCONCLUSIVE:
            return run
    return run
