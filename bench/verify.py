"""Checks of each invocation's exit code, stderr and output against the
generator's exact facts. All of this runs outside the timed regions."""

from __future__ import annotations

import json

from workloads import CHECK_TOL, CONDITIONAL_TOL, COUNTABLE_TOL, Job


def verify(job: Job, code: int, stdout: str, stderr: str, artifacts: dict[str, str]) -> str | None:
    """Return None when the invocation is as expected, else what differs."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:300]}"
    if stderr:
        return f"unexpected stderr: {stderr.strip()[:300]}"
    try:
        if job.kind == "identify":
            return _identify(job, json.loads(artifacts[job.artifacts[2].name]))
        check = _VERIFIERS["check" if job.kind.startswith("check_") else job.kind]
        return check(job, json.loads(stdout))
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _identify(job: Job, doc: dict) -> str | None:
    facts = job.expect["facts"]
    got = (doc["contexts"], len(doc["skipped"]), len(doc["excluded"]))
    want = (len(facts.conditionals), facts.zero_contexts, facts.excluded)
    if got != want:
        return f"(contexts, skipped, excluded) = {got}, expected {want}"
    return None


def _match_conditionals(facts, entries: list, key: str) -> str | None:
    for entry in entries:
        ctx = tuple(entry["context"][n] for n in facts.conditioning)
        bayes = facts.conditionals.get(ctx)
        if bayes is None:
            return f"context {ctx} has zero mass but was reported"
        for row in entry[key]:
            label = row["outcome"][facts.target]
            err = abs(float(row["q"]) - bayes.get(label, 0.0))
            if not err <= CONDITIONAL_TOL:
                return f"{key} at {ctx}/{label} is off the conditional by {err!r}"
    return None


def _counts(facts, doc: dict, skipped: int) -> str | None:
    got = (len(doc["entries"]), len(doc["skipped"]))
    want = (len(facts.conditionals), skipped)
    if got != want:
        return f"(entries, skipped) = {got}, expected {want}"
    return None


def _solve(job: Job, doc: dict) -> str | None:
    facts = job.expect["facts"]
    return (_counts(facts, doc, facts.zero_contexts)
            or _match_conditionals(facts, doc["entries"], "optimizer"))


def _construct(job: Job, doc: dict) -> str | None:
    facts = job.expect["facts"]
    bad = _counts(facts, doc, 0) or _match_conditionals(facts, doc["entries"], "posterior")
    if bad is None:
        worst = max(float(e["normalization_residual"]) for e in doc["entries"])
        if not worst <= CHECK_TOL:
            bad = f"normalization residual {worst!r} above {CHECK_TOL!r}"
    return bad


def _check(job: Job, doc: dict) -> str | None:
    name = job.expect["check"]
    (entry,) = doc["checks"]
    if entry["check"] != name or entry["passed"] is not True or doc["all_passed"] is not True:
        return f"check {entry['check']!r} passed={entry['passed']!r}, expected {name!r} to pass"
    residual = float(entry["max_residual"])
    if not residual <= CHECK_TOL:
        return f"max_residual {residual!r} above {CHECK_TOL!r}"
    return None


def _countable(job: Job, doc: dict) -> str | None:
    fam = job.expect["family"]
    status = doc["status"]
    if status not in fam.statuses:
        return f"status {status!r}, expected one of {fam.statuses!r}"
    if status == "finite":
        err = abs(float(doc["log_normalizer"]) - fam.closed_form())
        if not err <= COUNTABLE_TOL:
            return f"log_normalizer off the closed form by {err!r}"
    if status == "diverged" and doc["log_normalizer"] != "inf":
        return f"diverged log_normalizer {doc['log_normalizer']!r}, expected \"inf\""
    return None


_VERIFIERS = {
    "solve": _solve,
    "check": _check,
    "construct": _construct,
    "countable": _countable,
}
