"""Command-line front end.

Subcommands load JSON inputs, run the library, and emit deterministic
reports: sorted keys, canonical (lexicographic assignment) ordering, 17
significant digits. Identical inputs and flags give byte-identical output.

Exit codes:
  0  success; for `check`, all requested checks passed
  1  a requested check failed, a runtime contract was violated, or an
     --out file could not be written
  2  invalid input: an unreadable or malformed file, a bad field or flag value
  3  zero-mass conditioning context without --skip-zero-mass
  4  coverage mismatch (a table misses required contexts or cells)
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from typing import Sequence

from .coherence import EventValueFunction, _audit, _problem
from .dist import DistVector, JointTable
from .errors import (
    CoverageMismatch,
    OutputError,
    SoftTiltError,
    ValidationError,
    ZeroMassContext,
)
from .identify import (
    ADMIT_TOL,
    IDENTITY_TOL,
    Direction,
    _admissibility,
    _calibrate,
    _gauge,
    _interactions,
    _lookup,
    _posterior_and_residual,
    _split,
    default_direction,
)
from .io import (
    _bindings,
    _quote,
    _read_rows,
    _render,
    _Rows,
    _Shape,
    _table_text,
    baseline_from_doc,
    direction_fields,
    direction_from_tag,
    family_from_doc,
    joint_from_doc,
    load_json,
    values_from_doc,
)
from .tilt import SolverConfig, _decomposition_residual, _point_residual, solve_tilt

CHECK_NAMES = ("gauge", "admissibility", "commute", "decomposition")

# the entry shapes of the reports, each at the depth of its list
_SKIPPED = _Shape(1, "context", "reason")
_SOLVED = _Shape(1, "context", "log_normalizer", "optimizer", "soft_value",
                 floats=("log_normalizer", "soft_value"))
_CONSTRUCTED = _Shape(1, "context", "normalization_residual", "posterior",
                      floats=("normalization_residual",))
_DIST = _Shape(3, "outcome", "q", floats=("q",))
_CONTEXT_VALUES = _Shape(1, "V", "context", floats=("V",))
_EXCLUDED = _Shape(1, "context", "outcome", "reason")
_RESIDUALS = _Shape(3, "at", "residual", floats=("residual",))
_SKIPPED_AT = _Shape(3, "at", "reason")
_SHIFTS = _Shape(4, "c", "context", floats=("c",))
_INTERACTIONS = _Shape(1, "context", "outcome", "i", floats=("i",))
_REWARDS = _Shape(1, "context", "outcome", "r", "V", floats=("r", "V"))
_ZERO_CONTEXT, _ZERO_BASE, _ZERO_CELL = map(_quote, ("zero conditioning mass", "zero base mass",
                                                    "zero joint mass"))


# ------------------------------------------------------------- utilities

def _write_files(outputs: Sequence[tuple[str, str]]) -> None:
    """Write each (path, text) in turn; on failure remove the files written so far."""
    written: list[str] = []
    try:
        for path, text in outputs:
            with open(path, "w", encoding="utf-8") as fh:
                written.append(path)
                fh.write(text)
    except OSError as exc:
        for done in written:
            with contextlib.suppress(OSError):
                os.remove(done)
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(out: str | None, doc) -> None:
    text = _render(doc, 0) + "\n"
    if out:
        _write_files([(out, text)])
    else:
        sys.stdout.write(text)


def _load_joint(path: str) -> JointTable:
    return joint_from_doc(load_json(path))


def _pick_direction(args, joint: JointTable) -> Direction:
    if getattr(args, "direction", None):
        return direction_from_tag(args.direction, joint.names)
    return default_direction(joint)


def _dist_text(s, outcomes: list[str], dist: DistVector) -> str:
    """A distribution over a `_Split`'s outcomes, whose texts are given, in canonical order."""
    return _DIST([(outcomes[ti], dist.probs[ti]) for ti in s.outcome_order])


def _tol(args) -> float | None:
    """The --tol flag, None when not given; it must be finite and >= 0."""
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise ValidationError(f"--tol must be finite and >= 0, got {args.tol!r}")
    return args.tol


def _require_context_coverage(table: _Rows, label: str) -> None:
    """Every positive-mass context needs a row; `_Split.aligned` checks the row's outcomes."""
    s = table.split
    for ci in s.order:
        if s.m_cond[ci] and ci not in table.rows:
            raise CoverageMismatch(
                f"{label} has no entries for positive-mass context {s.contexts[ci]}"
            )


# ------------------------------------------------------------------ solve

def cmd_solve(args) -> int:
    joint = _load_joint(args.joint)
    if args.rewards:
        table = _read_rows(load_json(args.rewards), joint, "reward", args.fill_zero)
        direction, s = table.direction, table.split
        if args.direction and _pick_direction(args, joint).tag != direction.tag:
            raise ValidationError(
                f"--direction {args.direction!r} does not match "
                f"the rewards direction {direction.tag!r}"
            )
        _require_context_coverage(table, "rewards file")
        alpha = args.alpha if args.alpha is not None else table.alpha
        rows, terminals = table.rows, table.terminals
    else:
        direction = _pick_direction(args, joint)
        s = _split(joint, direction)
        alpha = args.alpha if args.alpha is not None else 1.0
        rows = dict.fromkeys(range(len(s.m_cond)), [0.0] * len(s.out_full))
        terminals = [0.0] * len(s.m_full)
    config = SolverConfig(alpha=alpha)
    contexts, outcomes = _bindings(joint, s.cond, 3)[0], _bindings(joint, s.target, 5)[0]
    entries, skipped = [], []
    for ci in s.order:
        if not s.m_cond[ci]:
            if not args.skip_zero_mass:
                raise ZeroMassContext(
                    f"conditioning event {s.contexts[ci]} has zero probability "
                    "(pass --skip-zero-mass to skip such contexts)"
                )
            skipped.append((contexts[ci], _ZERO_CONTEXT))
            continue
        solution = solve_tilt(_problem(s, ci, rows.get(ci), terminals.__getitem__, config, True))
        entries.append((contexts[ci], solution.log_normalizer,
                        _dist_text(s, outcomes, solution.optimizer), solution.soft_value))
    doc = direction_fields(direction)
    doc.update({"alpha": float(alpha), "entries": _SOLVED(entries), "skipped": _SKIPPED(skipped)})
    _emit(args.out, doc)
    return 0


# --------------------------------------------------------------- identify

def cmd_identify(args) -> int:
    joint = _load_joint(args.joint)
    direction = _pick_direction(args, joint)
    baseline = baseline_from_doc(load_json(args.baseline_file), joint) if args.baseline_file else None
    terminals = (
        values_from_doc(load_json(args.values), joint) if args.values else EventValueFunction.zero()
    )
    s = _split(joint, direction)
    terminal, interactions = _lookup(s, terminals), dict(_interactions(s))
    rows, values, excluded = _calibrate(s, interactions.items(), terminal, args.alpha, baseline)
    contexts, outcomes = _bindings(joint, s.cond, 3)[0], _bindings(joint, s.target, 3)[0]
    report = direction_fields(direction)
    report.update({
        "alpha": float(args.alpha),
        "contexts": len(interactions),
        "context_values": _CONTEXT_VALUES((v, contexts[ci]) for ci, v in values.items()),
        "excluded": _EXCLUDED((contexts[ci], outcomes[ti], _ZERO_CELL) for ci, ti in excluded),
        "skipped": _SKIPPED((contexts[ci], _ZERO_CONTEXT) for ci in s.order if not s.m_cond[ci]),
    })
    interaction = _table_text(joint, direction, args.alpha, interactions, _INTERACTIONS,
                              lambda ci, ti, i: (i,))
    rewards = _table_text(joint, direction, args.alpha, rows, _REWARDS,
                          lambda ci, ti, r: (r, terminal(s.ctx_full[ci] + s.out_full[ti])))
    _write_files([
        (f"{args.out}.interaction.json", interaction + "\n"),
        (f"{args.out}.rewards.json", rewards + "\n"),
        (f"{args.out}.report.json", _render(report, 0) + "\n"),
    ])
    return 0


# ------------------------------------------------------------------ check

def _check_doc(check, tolerance, grid, residuals, skipped=(), details=None, max_residual=None):
    """One check's report; residuals and skipped (a reason) map cell indices of
    `grid`, its cells' `_bindings` at depth 5, which list them in canonical order;
    max_residual defaults to the largest residual."""
    if max_residual is None:
        max_residual = max(residuals.values(), default=0.0)
    texts, order = grid
    doc = {
        "check": check,
        "tolerance": tolerance,
        "max_residual": max_residual,
        "passed": max_residual <= tolerance,
        "residuals": _RESIDUALS([(texts[c], residuals[c]) for c in order if c in residuals]),
        "skipped": _SKIPPED_AT([(texts[c], _quote(skipped[c])) for c in order if c in skipped]),
    }
    if details is not None:
        doc["details"] = details
    return doc


def _check_gauge(joint: JointTable, table: _Rows, tol: float) -> dict:
    s, terminal = table.split, table.terminals.__getitem__
    fresh = _calibrate(s, _interactions(s), terminal, table.alpha)[0]
    if table.rows.keys() != fresh.keys():
        raise CoverageMismatch("reward tables cover different context sets")
    rows = ((ci, table.rows[ci], row) for ci, row in fresh.items())  # in canonical order
    residuals, shifts, max_residual, witness = _gauge(s, rows, terminal, terminal)
    details: dict = {"convention": "external"}
    if max_residual <= tol:
        contexts = _bindings(joint, s.cond, 6)[0]
        details["shifts"] = _SHIFTS((c, contexts[ci]) for ci, c in shifts.items())
    else:  # a residual above tol >= 0 was seen, so there is a witness
        details["witness"] = dict(s.events[witness].items_sorted)
    full = _bindings(joint, s.full, 5)
    return _check_doc("gauge", tol, full, residuals, (), details, max_residual)


def _check_admissibility(
    joint: JointTable,
    loaded: _Rows,
    interaction_path: str | None,
    tol: float | None,
) -> dict:
    s = loaded.split
    if interaction_path is not None:
        table = _read_rows(load_json(interaction_path), joint, "interaction")
        if table.direction != loaded.direction:
            raise ValidationError(
                f"interaction file direction {table.direction.tag!r} does not match "
                f"the rewards direction {loaded.direction.tag!r}"
            )
        _require_context_coverage(table, "interaction file")
        rows = [(ci, table.rows[ci]) for ci in s.order if ci in table.rows]
        tolerance = ADMIT_TOL if tol is None else tol
        source = "external file"
    else:
        rows = _interactions(s)
        tolerance = IDENTITY_TOL if tol is None else tol
        source = "identified from joint"
    skipped = {ci: "zero conditioning mass" for ci in s.order if not s.m_cond[ci]}
    return _check_doc("admissibility", tolerance, _bindings(joint, s.cond, 5),
                      _admissibility(s, rows), skipped, {"source": source})


def _merge_terminals(s, order: list, ours: list, theirs: list) -> list:
    """V per full-group cell index: ours, and theirs where ours has none; values over
    1e-12 apart are a CoverageMismatch at the first such cell in canonical `order`."""
    for cell in order:
        a, b = ours[cell], theirs[cell]
        if a is not None and b is not None and abs(a - b) > 1e-12:
            raise CoverageMismatch(f"terminal values disagree at event {s.events[cell]}: "
                                   f"{a!r} vs {b!r}")
    return [b if a is None else a for a, b in zip(ours, theirs)]


def _check_commute(joint: JointTable, loaded: _Rows, swapped: _Rows, tol: float) -> dict:
    if swapped.direction != loaded.direction.swapped():
        raise ValidationError(
            f"--rewards-swapped direction {swapped.direction.tag!r} is not the swap "
            f"of {loaded.direction.tag!r}"
        )
    if swapped.alpha != loaded.alpha:
        raise ValidationError(
            f"alpha disagrees between reward files: {loaded.alpha!r} vs {swapped.alpha!r}"
        )
    s, full = loaded.split, _bindings(joint, loaded.split.full, 5)
    # both directions cover the same variables, so their cell indices agree
    terminals = _merge_terminals(s, full[1], loaded.terminals, swapped.terminals)
    identification, symmetry, commutativity, skipped, max_residual = _audit(
        joint, loaded.direction, SolverConfig(alpha=loaded.alpha), terminals.__getitem__,
        loaded.rows, swapped.rows, checked=True,
    )
    details = {
        "identification_max": {
            d.tag: max(row.values(), default=0.0)
            for d, row in zip((loaded.direction, swapped.direction), identification)
        },
        "symmetry_max": max(symmetry.values(), default=0.0),
        "commutativity_max": max(commutativity.values(), default=0.0),
    }
    return _check_doc("commute", tol, full, commutativity, skipped, details, max_residual)


def _check_decomposition(joint: JointTable, loaded: _Rows, tol: float) -> dict:
    config = SolverConfig(alpha=loaded.alpha)
    s, terminal = loaded.split, loaded.terminals.__getitem__
    residuals: dict[int, float] = {}
    skipped: dict[int, str] = {}
    for ci in s.order:
        if not s.m_cond[ci]:
            skipped[ci] = "zero conditioning mass"
            continue
        problem = _problem(s, ci, loaded.rows.get(ci), terminal, config, checked=True)
        solution = solve_tilt(problem)
        # probes: the prior, the optimizer, then the point mass on each supported outcome
        residuals[ci] = max([
            *(_decomposition_residual(problem, solution, q)
              for q in (problem.prior, solution.optimizer)),
            *(_point_residual(problem, solution, i) for i in problem.prior.support()),
        ])
    return _check_doc("decomposition", tol, _bindings(joint, s.cond, 5), residuals, skipped)


def cmd_check(args) -> int:
    tol = _tol(args)
    joint = _load_joint(args.joint)
    loaded = _read_rows(load_json(args.rewards), joint, "reward", args.fill_zero)
    _require_context_coverage(loaded, "rewards file")
    swapped = None
    if args.rewards_swapped:
        swapped = _read_rows(load_json(args.rewards_swapped), joint, "reward", args.fill_zero)
        _require_context_coverage(swapped, "--rewards-swapped file")
    if args.checks:
        names = [n.strip() for n in args.checks.split(",") if n.strip()]
        unknown = [n for n in names if n not in CHECK_NAMES]
        if unknown:
            raise ValidationError(
                f"unknown check {unknown[0]!r}; choose from {', '.join(CHECK_NAMES)}"
            )
        if "commute" in names and swapped is None:
            raise ValidationError("the commute check needs --rewards-swapped")
    else:
        names = [n for n in CHECK_NAMES if n != "commute" or swapped is not None]

    identity_tol = tol if tol is not None else IDENTITY_TOL
    reports: list[dict] = []
    for name in names:
        if name == "gauge":
            reports.append(_check_gauge(joint, loaded, identity_tol))
        elif name == "admissibility":
            reports.append(_check_admissibility(joint, loaded, args.interaction, tol))
        elif name == "commute":
            reports.append(_check_commute(joint, loaded, swapped, identity_tol))
        elif name == "decomposition":
            reports.append(_check_decomposition(joint, loaded, identity_tol))
    all_passed = all(r["passed"] for r in reports)
    doc = direction_fields(loaded.direction)
    doc.update({"alpha": loaded.alpha, "checks": reports, "all_passed": all_passed})
    _emit(args.out, doc)
    return 0 if all_passed else 1


# -------------------------------------------------------------- construct

def cmd_construct(args) -> int:
    tol = _tol(args)
    joint = _load_joint(args.joint)
    table = _read_rows(load_json(args.interaction), joint, "interaction")
    _require_context_coverage(table, "interaction file")
    s = table.split
    tol_admit = tol if tol is not None else ADMIT_TOL
    contexts, outcomes = _bindings(joint, s.cond, 3)[0], _bindings(joint, s.target, 5)[0]
    entries, skipped = [], []
    for ci in s.order:
        row = table.rows.get(ci)
        if row is None:
            continue
        try:
            prior, signal = s.aligned(ci, row, "interaction table")
        except ZeroMassContext:
            if not args.skip_zero_mass:
                raise
            skipped.append((contexts[ci], _ZERO_BASE))
            continue
        posterior, residual = _posterior_and_residual(prior, signal, tol_admit)
        entries.append((contexts[ci], residual, _dist_text(s, outcomes, posterior)))
    doc = direction_fields(table.direction)
    doc.update({"tol_admit": tol_admit, "entries": _CONSTRUCTED(entries),
                "skipped": _SKIPPED(skipped)})
    _emit(args.out, doc)
    return 0


# -------------------------------------------------------------- countable

def cmd_countable(args) -> int:
    from .countable import log_normalizer_truncated  # the one subcommand that loads it

    family = family_from_doc(load_json(args.family))
    # only the budget flags given, so that the library's defaults apply to the others
    budget = {k: getattr(args, k) for k in ("start", "max_doublings") if getattr(args, k) is not None}
    estimate, cert = log_normalizer_truncated(family, eps_tail=args.eps_tail, **budget)
    doc = {
        "family": family.describe,
        "eps_tail": args.eps_tail,
        "status": cert.status.value,
        "log_normalizer": estimate,
        "terms": cert.N,
        "log_partial": cert.log_partial,
        "tail_bound": cert.tail_bound,
    }
    _emit(args.out, doc)
    return 0


# ------------------------------------------------------------------- main

@functools.cache  # built on the first call of main, not at import, and reused after
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softtilt",
        description="Exponential-tilt solving, calibration, and coherence checks "
        "over discrete joint tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_out(p):
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("solve", help="tilt the per-context priors and report optimizers")
    p.add_argument("joint", help="joint table JSON file")
    p.add_argument("--rewards", help="reward/terminal JSON file")
    p.add_argument("--alpha", type=float, help="concentration; overrides the file value")
    p.add_argument("--direction", help="direction tag such as x_given_yz")
    p.add_argument("--skip-zero-mass", action="store_true")
    p.add_argument("--fill-zero", action="store_true", help="default missing reward entries to 0")
    common_out(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("identify", help="extract interactions and calibrate rewards")
    p.add_argument("joint")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--direction")
    p.add_argument("--values", help="terminal event-value JSON file (default: all zero)")
    p.add_argument("--baseline-file", help="per-context baseline shift JSON file")
    p.add_argument("--out", required=True, help="output prefix for the three artifacts")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("check", help="run coherence checks against a reward file")
    p.add_argument("joint")
    p.add_argument("--rewards", required=True)
    p.add_argument("--rewards-swapped", help="reward file for the swapped direction")
    p.add_argument("--interaction", help="externally produced interaction file")
    p.add_argument("--checks", help=f"comma list from: {', '.join(CHECK_NAMES)}")
    p.add_argument("--tol", type=float, help="override the per-check default tolerance")
    p.add_argument("--fill-zero", action="store_true")
    common_out(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="rebuild posteriors from an interaction file")
    p.add_argument("joint")
    p.add_argument("--interaction", required=True)
    p.add_argument("--tol", type=float, help="admissibility tolerance (default 1e-8)")
    p.add_argument("--skip-zero-mass", action="store_true")
    common_out(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("countable", help="certified log-normalizer for a countable family")
    p.add_argument("family", help="family description JSON file")
    p.add_argument("--eps-tail", type=float, default=1e-12)
    p.add_argument("--start", type=int)
    p.add_argument("--max-doublings", type=int)
    common_out(p)
    p.set_defaults(func=cmd_countable)

    return parser


# the exit code of each error class that has one, the first match winning (a
# CoverageMismatch is a ValidationError); any other SoftTiltError exits 1
_EXIT_CODES = ((CoverageMismatch, 4), (ValidationError, 2), (ZeroMassContext, 3))


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SoftTiltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), 1)


if __name__ == "__main__":
    sys.exit(main())
