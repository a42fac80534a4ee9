"""Seeded inputs, job lists and expected results for the softtilt benchmark.

Every workload runs the same job list on each of its joints: identify in
both directions, solve with the forward rewards, the four checks one
invocation each, and construct. The fixed countable family set follows the
joints. Everything here is computed from the generator's own masses, never
from the program under test, so the expected values are independent of it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ALPHA = 2.0
# verification tolerances
CHECK_TOL = 1e-10
CONDITIONAL_TOL = 1e-12
COUNTABLE_TOL = 1e-9

CHECKS = ("gauge", "admissibility", "decomposition", "commute")
WORKLOADS = ("dense", "batch")

# Sizes. At k=8 the dense joint would leave too few repetitions of each
# invocation in a run; at k=6 every per-context conditional still rebuilds
# the marginal over the whole table.
DENSE_K = 6
BATCH_PER_SHAPE = 4  # 13 shapes, 52 joints
BATCH_MAX_CELLS = 27


@dataclass
class Joint:
    """A generated joint table plus the exact facts the checks compare against."""

    label: str
    names: tuple[str, ...]
    alphabets: tuple[tuple[str, ...], ...]
    mass: dict[tuple[str, ...], float]  # positive cells only, labels in `names` order
    forward: str
    swapped: str

    @property
    def grid(self) -> int:
        return math.prod(len(a) for a in self.alphabets)

    def to_doc(self) -> dict:
        return {
            "variables": [
                {"name": n, "alphabet": list(a)} for n, a in zip(self.names, self.alphabets)
            ],
            "mass": [
                {"assign": dict(zip(self.names, cell)), "p": p}
                for cell, p in sorted(self.mass.items())
            ],
        }


@dataclass
class DirectionFacts:
    """Exact per-direction facts: Bayes conditionals and context counts."""

    target: str
    conditioning: tuple[str, ...]
    conditionals: dict[tuple[str, ...], dict[str, float]]  # ctx labels -> {target label: P}
    zero_contexts: int
    excluded: int  # prior-supported outcomes with zero joint mass, in positive contexts


def direction_facts(joint: Joint, tag: str) -> DirectionFacts:
    """Facts for a tag such as x_given_yz: one letter per variable name."""
    left, _, right = tag.partition("_given_")
    target = left.upper()
    cond = tuple(c.upper() for c in right)
    base = cond[:-1]
    index = {n: i for i, n in enumerate(joint.names)}
    exact = {cell: Fraction(p) for cell, p in joint.mass.items()}

    def project(cell, names):
        return tuple(cell[index[n]] for n in names)

    ctx_mass: dict[tuple, Fraction] = {}
    cell_mass: dict[tuple, dict[str, Fraction]] = {}
    prior_support: dict[tuple, set[str]] = {}
    for cell, p in exact.items():
        ctx = project(cell, cond)
        ctx_mass[ctx] = ctx_mass.get(ctx, Fraction(0)) + p
        row = cell_mass.setdefault(ctx, {})
        x = cell[index[target]]
        row[x] = row.get(x, Fraction(0)) + p
        prior_support.setdefault(project(cell, base), set()).add(x)
    conditionals = {
        ctx: {x: float(m / ctx_mass[ctx]) for x, m in row.items()}
        for ctx, row in cell_mass.items()
    }
    grid_contexts = math.prod(len(joint.alphabets[index[n]]) for n in cond)
    excluded = sum(
        len(prior_support[ctx[: len(base)]] - set(row)) for ctx, row in cell_mass.items()
    )
    return DirectionFacts(
        target=target,
        conditioning=cond,
        conditionals=conditionals,
        zero_contexts=grid_contexts - len(ctx_mass),
        excluded=excluded,
    )


# ------------------------------------------------------------- generators

def labels(k: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(k))


def normalized_masses(rng: random.Random, cells) -> dict[tuple[str, ...], float]:
    weights = {cell: rng.uniform(0.05, 1.0) for cell in cells}
    total = math.fsum(weights.values())
    return {cell: w / total for cell, w in weights.items()}


def dense_joints(rng: random.Random) -> list[Joint]:
    alphabets = (labels(DENSE_K),) * 3
    mass = normalized_masses(rng, itertools.product(*alphabets))
    return [Joint("dense", ("X", "Y", "Z"), alphabets, mass, "x_given_yz", "z_given_yx")]


def batch_shapes() -> list[tuple[int, ...]]:
    """Every alphabet-size tuple of 3 or 4 variables with 2-3 labels and at most 27 cells."""
    return [
        sizes
        for n in (3, 4)
        for sizes in itertools.product((2, 3), repeat=n)
        if math.prod(sizes) <= BATCH_MAX_CELLS
    ]


def batch_joints(rng: random.Random) -> list[Joint]:
    # a fixed number of joints per shape, in seeded order, so that the mix
    # of table sizes (and with it each median) is the same for every seed
    shapes = batch_shapes() * BATCH_PER_SHAPE
    rng.shuffle(shapes)
    out = []
    for i, sizes in enumerate(shapes):
        alphabets = tuple(labels(s) for s in sizes)
        mass = normalized_masses(rng, itertools.product(*alphabets))
        if len(sizes) == 3:
            names, fwd, swp = ("X", "Y", "Z"), "x_given_yz", "z_given_yx"
        else:
            names, fwd, swp = ("W", "X", "Y", "Z"), "x_given_wyz", "z_given_wyx"
        out.append(Joint(f"batch{i:03d}", names, alphabets, mass, fwd, swp))
    return out


# ------------------------------------------------------ countable family set

@dataclass(frozen=True)
class Family:
    label: str
    q: float
    kind: str  # "linear" or "constant"
    value: float  # slope or constant value
    statuses: tuple[str, ...]  # sound certificate statuses; the first is today's

    def to_doc(self) -> dict:
        if self.kind == "linear":
            payoff = {"kind": "linear", "slope": self.value}
        else:
            payoff = {"kind": "constant", "value": self.value}
        return {
            "prior": {"kind": "geometric", "q": self.q},
            "payoff": payoff,
            "bounds": {"tail": "geometric", "payoff": self.kind},
        }

    def closed_form(self) -> float:
        """log Z: log((1-q) / (1 - q e^s)) for a linear payoff, the value for a constant."""
        if self.kind == "constant":
            return self.value
        return math.log((1.0 - self.q) / (1.0 - self.q * math.exp(self.value)))


FAMILIES = (
    Family("finite_fast", 0.5, "linear", math.log(1.5), ("finite",)),
    Family("finite_slow", 0.9, "linear", math.log(1 / 0.9) - 1e-4, ("finite",)),
    # q e^slope = 1: the series diverges, which the current code reports as
    # inconclusive after its full budget; a certificate of divergence is also sound
    Family("ratio_one", 0.5, "linear", math.log(2.0), ("inconclusive", "diverged")),
    Family("diverged", 0.5, "linear", math.log(3.0), ("diverged",)),
    Family("constant", 0.99, "constant", 3.0, ("finite",)),
)


# --------------------------------------------------------------- job lists

@dataclass
class Job:
    """One CLI invocation with what its result must be."""

    label: str
    group: str  # jobs doing the same work: same step on joints of the same shape
    kind: str  # the end-to-end metric it feeds, without the "_s"
    argv: list[str]
    artifacts: list[Path] = field(default_factory=list)
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    joints: list[Joint]
    jobs: list[Job]
    sizes: dict


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the workload's inputs under `work` and return its job list."""
    rng = random.Random(f"softtilt-bench/{name}/{seed}")
    joints = {"dense": dense_joints, "batch": batch_joints}[name](rng)
    jobs: list[Job] = []
    contexts = 0
    for joint in joints:
        jobs.extend(_joint_jobs(joint, work))
        contexts += joint.grid // len(joint.alphabets[joint.names.index("X")])
    for fam in FAMILIES:
        path = work / f"family-{fam.label}.json"
        path.write_text(json.dumps(fam.to_doc()), encoding="utf-8")
        label = f"countable/{fam.label}"
        jobs.append(Job(label, label, "countable", ["countable", str(path)],
                        expect={"family": fam}))
    sizes = {
        "joints": len(joints),
        "cells": sum(len(j.mass) for j in joints),
        "grid": sum(j.grid for j in joints),
        "contexts_per_direction": contexts,
        "joint_invocations_per_pass": len(jobs) - len(FAMILIES),
        "families": len(FAMILIES),
    }
    return Workload(name, joints, jobs, sizes)


def _joint_jobs(joint: Joint, work: Path) -> list[Job]:
    jpath = work / f"{joint.label}.joint.json"
    jpath.write_text(json.dumps(joint.to_doc()), encoding="utf-8")
    j = str(jpath)
    shape = "x".join(str(len(a)) for a in joint.alphabets)
    fwd_facts = direction_facts(joint, joint.forward)
    swp_facts = direction_facts(joint, joint.swapped)
    jobs = []

    def add(step: str, kind: str, argv: list[str], **extra) -> None:
        jobs.append(Job(f"{joint.label}/{step}", f"{shape}/{step}", kind, argv, **extra))

    prefixes = {}
    for side, tag, facts in (("fwd", joint.forward, fwd_facts), ("swp", joint.swapped, swp_facts)):
        prefix = work / f"{joint.label}.{side}"
        prefixes[side] = str(prefix)
        add(f"identify-{side}", "identify",
            ["identify", j, "--alpha", repr(ALPHA), "--direction", tag, "--out", str(prefix)],
            artifacts=[Path(f"{prefix}.{part}.json") for part in ("interaction", "rewards", "report")],
            expect={"facts": facts})
    rewards = prefixes["fwd"] + ".rewards.json"
    add("solve", "solve", ["solve", j, "--rewards", rewards], expect={"facts": fwd_facts})
    for check in CHECKS:
        argv = ["check", j, "--rewards", rewards, "--checks", check]
        if check == "commute":
            argv += ["--rewards-swapped", prefixes["swp"] + ".rewards.json"]
        add(f"check-{check}", f"check_{check}", argv, expect={"check": check})
    add("construct", "construct",
        ["construct", j, "--interaction", prefixes["fwd"] + ".interaction.json"],
        expect={"facts": fwd_facts})
    return jobs
