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
import math
import os
import sys
from typing import Sequence

from .coherence import DirectionPair, EventValueFunction, build_problem, order_independence_check
from .countable import DEFAULT_MAX_DOUBLINGS, DEFAULT_START, log_normalizer_truncated
from .dist import Assignment, DistVector, JointTable
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
    RewardTable,
    _posterior_and_residual,
    _split,
    calibrate_rewards,
    check_admissibility,
    default_direction,
    gauge_equivalent,
    identify_interaction,
)
from .io import (
    LoadedRewards,
    baseline_from_doc,
    direction_fields,
    direction_from_tag,
    dumps_report,
    family_from_doc,
    interaction_from_doc,
    interaction_to_text,
    joint_from_doc,
    load_json,
    reward_from_doc,
    reward_to_text,
    values_from_doc,
)
from .tilt import SolverConfig, _decomposition_residual, solve_tilt

CHECK_NAMES = ("gauge", "admissibility", "commute", "decomposition")


# ------------------------------------------------------------- utilities

def _obj(assignment: Assignment) -> dict:
    return dict(assignment.items_sorted)


def _contexts(joint: JointTable, direction: Direction) -> list[tuple[Assignment, bool]]:
    """Every context of a direction in canonical order, with whether its mass is positive."""
    s = _split(joint, direction)
    return [(s.contexts[ci], s.m_cond[ci] > 0) for ci in s.order]


def _render(doc) -> str:
    return dumps_report(doc) + "\n"


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
    text = _render(doc)
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


def _dist_entries(dist: DistVector) -> list[dict]:
    rows = sorted(zip(dist.outcomes(), dist.probs), key=lambda t: t[0].items_sorted)
    return [{"outcome": _obj(o), "q": float(p)} for o, p in rows]


def _zero_rewards(joint: JointTable, direction: Direction) -> RewardTable:
    outcomes = _split(joint, direction).outcomes
    entries = {ctx: dict.fromkeys(outcomes, 0.0) for ctx, _ in _contexts(joint, direction)}
    return RewardTable(direction=direction, entries=entries, convention="zero rewards")


def _tol(args) -> float | None:
    """The --tol flag, None when not given; it must be finite and >= 0."""
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise ValidationError(f"--tol must be finite and >= 0, got {args.tol!r}")
    return args.tol


def _require_context_coverage(joint: JointTable, direction: Direction, rows, label: str) -> None:
    """Every positive-mass context needs a row; `_Split.aligned` checks the row's outcomes."""
    for ctx, positive in _contexts(joint, direction):
        if positive and ctx not in rows:
            raise CoverageMismatch(f"{label} has no entries for positive-mass context {ctx}")


# ------------------------------------------------------------------ solve

def cmd_solve(args) -> int:
    joint = _load_joint(args.joint)
    if args.rewards:
        loaded = reward_from_doc(load_json(args.rewards), joint, fill_zero=args.fill_zero)
        direction = loaded.direction
        alpha = args.alpha if args.alpha is not None else loaded.alpha
        rewards, terminals = loaded.rewards, loaded.terminals
        _require_context_coverage(joint, direction, rewards.entries, "rewards file")
    else:
        direction = _pick_direction(args, joint)
        alpha = args.alpha if args.alpha is not None else 1.0
        rewards, terminals = _zero_rewards(joint, direction), EventValueFunction.zero()
    config = SolverConfig(alpha=alpha)
    entries = []
    skipped = []
    for ctx, positive in _contexts(joint, direction):
        if not positive:
            if not args.skip_zero_mass:
                raise ZeroMassContext(
                    f"conditioning event {ctx} has zero probability "
                    "(pass --skip-zero-mass to skip such contexts)"
                )
            skipped.append({"context": _obj(ctx), "reason": "zero conditioning mass"})
            continue
        solution = solve_tilt(build_problem(joint, terminals, config, rewards, ctx))
        entries.append(
            {
                "context": _obj(ctx),
                "optimizer": _dist_entries(solution.optimizer),
                "soft_value": solution.soft_value,
                "log_normalizer": solution.log_normalizer,
            }
        )
    doc = direction_fields(direction)
    doc.update({"alpha": float(alpha), "entries": entries, "skipped": skipped})
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
    calib = calibrate_rewards(joint, direction, terminals, args.alpha, baseline=baseline)

    skipped = [
        {"context": _obj(ctx), "reason": "zero conditioning mass"}
        for ctx, positive in _contexts(joint, direction)
        if not positive
    ]
    excluded = [
        {"context": _obj(ctx), "outcome": _obj(o), "reason": "zero joint mass"}
        for ctx, o in calib.excluded
    ]
    report = direction_fields(direction)
    report.update(
        {
            "alpha": float(args.alpha),
            "contexts": len(calib.interaction.values),
            "context_values": [
                {"context": _obj(ctx), "V": calib.context_values[ctx]}
                for ctx in sorted(calib.context_values, key=lambda a: a.items_sorted)
            ],
            "excluded": excluded,
            "skipped": skipped,
        }
    )
    prefix = args.out
    _write_files([
        (f"{prefix}.interaction.json", interaction_to_text(calib.interaction, args.alpha) + "\n"),
        (f"{prefix}.rewards.json", reward_to_text(args.alpha, calib.rewards, terminals) + "\n"),
        (f"{prefix}.report.json", _render(report)),
    ])
    return 0


# ------------------------------------------------------------------ check

def _check_doc(check, tolerance, residuals, skipped=(), details=None, max_residual=None) -> dict:
    """One check's report; residuals maps cell to residual, max_residual defaults
    to their largest, and cells are listed in canonical order."""
    if max_residual is None:
        max_residual = max(residuals.values(), default=0.0)
    doc = {
        "check": check,
        "tolerance": tolerance,
        "max_residual": max_residual,
        "passed": max_residual <= tolerance,
        "residuals": [
            {"at": _obj(cell), "residual": value}
            for cell, value in sorted(residuals.items(), key=lambda t: t[0].items_sorted)
        ],
        "skipped": [
            {"at": _obj(cell), "reason": reason}
            for cell, reason in sorted(skipped, key=lambda t: t[0].items_sorted)
        ],
    }
    if details is not None:
        doc["details"] = details
    return doc


def _check_gauge(joint: JointTable, loaded: LoadedRewards, tol: float) -> dict:
    fresh = calibrate_rewards(joint, loaded.direction, loaded.terminals, loaded.alpha)
    cmp = gauge_equivalent(
        (loaded.rewards, loaded.terminals), (fresh.rewards, loaded.terminals), joint, tol=tol
    )
    details: dict = {"convention": loaded.rewards.convention}
    if cmp.shifts is not None:
        details["shifts"] = [
            {"context": _obj(ctx), "c": cmp.shifts[ctx]}
            for ctx in sorted(cmp.shifts, key=lambda a: a.items_sorted)
        ]
    if cmp.witness is not None:
        details["witness"] = _obj(cmp.witness[0].union(cmp.witness[1]))
    residuals = {ctx.union(o): v for (ctx, o), v in cmp.residuals.items()}
    return _check_doc("gauge", tol, residuals, details=details, max_residual=cmp.max_residual)


def _check_admissibility(
    joint: JointTable,
    loaded: LoadedRewards,
    interaction_path: str | None,
    tol: float | None,
) -> dict:
    if interaction_path is not None:
        _, table = interaction_from_doc(load_json(interaction_path), joint)
        if table.direction != loaded.direction:
            raise ValidationError(
                f"interaction file direction {table.direction.tag!r} does not match "
                f"the rewards direction {loaded.direction.tag!r}"
            )
        _require_context_coverage(joint, table.direction, table.values, "interaction file")
        tolerance = ADMIT_TOL if tol is None else tol
        source = "external file"
    else:
        table = identify_interaction(joint, loaded.direction)
        tolerance = IDENTITY_TOL if tol is None else tol
        source = "identified from joint"
    residuals = check_admissibility(table, joint)
    skipped = [
        (ctx, "zero conditioning mass") for ctx, positive in _contexts(joint, table.direction)
        if not positive
    ]
    return _check_doc("admissibility", tolerance, residuals, skipped, {"source": source})


def _merge_terminals(a: EventValueFunction, b: EventValueFunction) -> EventValueFunction:
    merged = {event: a.value(event) for event in a.events()}
    for event in b.events():
        v = b.value(event)
        if event in merged and abs(merged[event] - v) > 1e-12:
            raise CoverageMismatch(
                f"terminal values disagree at event {event}: {merged[event]!r} vs {v!r}"
            )
        merged.setdefault(event, v)
    default = a.default if a.default is not None else b.default
    return EventValueFunction(merged, default=default)


def _check_commute(
    joint: JointTable,
    loaded: LoadedRewards,
    swapped: LoadedRewards,
    tol: float,
) -> dict:
    if swapped.direction != loaded.direction.swapped():
        raise ValidationError(
            f"--rewards-swapped direction {swapped.direction.tag!r} is not the swap "
            f"of {loaded.direction.tag!r}"
        )
    if swapped.alpha != loaded.alpha:
        raise ValidationError(
            f"alpha disagrees between reward files: {loaded.alpha!r} vs {swapped.alpha!r}"
        )
    terminals = _merge_terminals(loaded.terminals, swapped.terminals)
    pair = DirectionPair(
        joint=joint,
        values=terminals,
        config=SolverConfig(alpha=loaded.alpha),
        forward=loaded.direction,
    )
    report = order_independence_check(pair, loaded.rewards, swapped.rewards, tol=tol)
    details = {
        "identification_max": {
            tag: max(row.values(), default=0.0)
            for tag, row in report.identification.items()
        },
        "symmetry_max": max(report.symmetry.values(), default=0.0),
        "commutativity_max": max(report.commutativity.values(), default=0.0),
    }
    return _check_doc(
        "commute", tol, report.commutativity, report.skipped, details, report.max_residual
    )


def _check_decomposition(joint: JointTable, loaded: LoadedRewards, tol: float) -> dict:
    config = SolverConfig(alpha=loaded.alpha)
    residuals: dict[Assignment, float] = {}
    skipped: list[tuple[Assignment, str]] = []
    for ctx, positive in _contexts(joint, loaded.direction):
        if not positive:
            skipped.append((ctx, "zero conditioning mass"))
            continue
        problem = build_problem(joint, loaded.terminals, config, loaded.rewards, ctx)
        solution = solve_tilt(problem)
        probes = [problem.prior, solution.optimizer]
        for i, p in enumerate(problem.prior.probs):
            if p > 0:
                point = tuple(1.0 if j == i else 0.0 for j in range(len(problem.prior.probs)))
                probes.append(DistVector(problem.prior.over, point))
        residuals[ctx] = max(_decomposition_residual(problem, solution, probe) for probe in probes)
    return _check_doc("decomposition", tol, residuals, skipped)


def cmd_check(args) -> int:
    tol = _tol(args)
    joint = _load_joint(args.joint)
    loaded = reward_from_doc(load_json(args.rewards), joint, fill_zero=args.fill_zero)
    _require_context_coverage(joint, loaded.direction, loaded.rewards.entries, "rewards file")
    swapped = None
    if args.rewards_swapped:
        swapped = reward_from_doc(load_json(args.rewards_swapped), joint, fill_zero=args.fill_zero)
        rows = swapped.rewards.entries
        _require_context_coverage(joint, swapped.direction, rows, "--rewards-swapped file")
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
    doc.update(
        {
            "alpha": loaded.alpha,
            "checks": reports,
            "all_passed": all_passed,
        }
    )
    _emit(args.out, doc)
    return 0 if all_passed else 1


# -------------------------------------------------------------- construct

def cmd_construct(args) -> int:
    tol = _tol(args)
    joint = _load_joint(args.joint)
    _, table = interaction_from_doc(load_json(args.interaction), joint)
    direction = table.direction
    _require_context_coverage(joint, direction, table.values, "interaction file")
    s = _split(joint, direction)
    tol_admit = tol if tol is not None else ADMIT_TOL
    entries = []
    skipped = []
    for ctx in table.contexts():
        try:
            prior, signal = s.aligned(s.ctx_index[ctx], table.values[ctx], "interaction table")
        except ZeroMassContext:
            if not args.skip_zero_mass:
                raise
            skipped.append({"context": _obj(ctx), "reason": "zero base mass"})
            continue
        posterior, residual = _posterior_and_residual(prior, signal, tol_admit)
        entries.append(
            {
                "context": _obj(ctx),
                "posterior": _dist_entries(posterior),
                "normalization_residual": residual,
            }
        )
    doc = direction_fields(direction)
    doc.update({"tol_admit": tol_admit, "entries": entries, "skipped": skipped})
    _emit(args.out, doc)
    return 0


# -------------------------------------------------------------- countable

def cmd_countable(args) -> int:
    family = family_from_doc(load_json(args.family))
    estimate, cert = log_normalizer_truncated(
        family,
        eps_tail=args.eps_tail,
        start=args.start,
        max_doublings=args.max_doublings,
    )
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
    p.add_argument("--start", type=int, default=DEFAULT_START)
    p.add_argument("--max-doublings", type=int, default=DEFAULT_MAX_DOUBLINGS)
    common_out(p)
    p.set_defaults(func=cmd_countable)

    return parser


_parser: argparse.ArgumentParser | None = None

# the exit code of each error class that has one, the first match winning (a
# CoverageMismatch is a ValidationError); any other SoftTiltError exits 1
_EXIT_CODES = ((CoverageMismatch, 4), (ValidationError, 2), (ZeroMassContext, 3))


def main(argv: Sequence[str] | None = None) -> int:
    # built on the first call, not at import, and reused by every later call
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except SoftTiltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), 1)


if __name__ == "__main__":
    sys.exit(main())
