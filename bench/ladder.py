"""One-off size ladder behind ROADMAP's Baseline table; not a gated workload.

    python3 bench/ladder.py --seed 1 --timeout 60

For each k in the ladder it builds a strictly positive joint over X, Y, Z
with alphabets of size k (k^3 cells) and times these library calls in
process, direction x_given_yz: identify_interaction, calibrate_rewards,
check_admissibility, gauge_equivalent and order_independence_check. Each
(k, stage) runs in its own interpreter, which builds what the stage needs
untimed and then times the stage once. A stage that outlives --timeout is
killed and recorded as a timeout: no row is ever dropped. Results go to
bench/out/ladder-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
LADDER = (4, 8, 12, 16, 24)
STAGES = (
    "identify_interaction",
    "calibrate_rewards",
    "check_admissibility",
    "gauge_equivalent",
    "order_independence_check",
)


def stage_seconds(stage: str, k: int, seed: int) -> float:
    """Build the inputs for one stage untimed, then time the stage once."""
    sys.path.insert(0, str(SRC))
    from softtilt import (
        Direction, DirectionPair, EventValueFunction, GaugeShift, JointTable, SolverConfig,
        VariableSpec, calibrate_rewards, check_admissibility, gauge_equivalent,
        identify_interaction, order_independence_check,
    )
    from workloads import labels, normalized_masses

    rng = random.Random(f"softtilt-ladder/{k}/{seed}")
    names = ("X", "Y", "Z")
    alphabets = (labels(k),) * 3
    mass = normalized_masses(rng, itertools.product(*alphabets))
    joint = JointTable(
        [VariableSpec(n, a) for n, a in zip(names, alphabets)],
        [(dict(zip(names, cell)), p) for cell, p in mass.items()],
    )
    fwd = Direction(target=("X",), base=("Y",), observed=("Z",))
    zero = EventValueFunction.zero()
    alpha = 2.0
    if stage == "identify_interaction":
        call = lambda: identify_interaction(joint, fwd)  # noqa: E731
    elif stage == "calibrate_rewards":
        call = lambda: calibrate_rewards(joint, fwd, zero, alpha)  # noqa: E731
    elif stage == "check_admissibility":
        table = identify_interaction(joint, fwd)
        call = lambda: check_admissibility(table, joint)  # noqa: E731
    elif stage == "gauge_equivalent":
        a = calibrate_rewards(joint, fwd, zero, alpha).rewards
        b = calibrate_rewards(joint, fwd, zero, alpha, baseline=GaugeShift.constant(1.0)).rewards
        call = lambda: gauge_equivalent((a, zero), (b, zero), joint)  # noqa: E731
    else:
        pair = DirectionPair(joint=joint, values=zero, config=SolverConfig(alpha), forward=fwd)
        r_fwd = calibrate_rewards(joint, fwd, zero, alpha).rewards
        r_swp = calibrate_rewards(joint, fwd.swapped(), zero, alpha).rewards
        call = lambda: order_independence_check(pair, r_fwd, r_swp)  # noqa: E731
    start = perf_counter()
    call()
    return perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per stage")
    parser.add_argument("--stage", choices=STAGES, help=argparse.SUPPRESS)
    parser.add_argument("--k", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.stage:  # child: one stage, result on stdout
        print(json.dumps(stage_seconds(args.stage, args.k, args.seed)))
        return 0
    if not (SRC / "softtilt" / "__init__.py").is_file():
        print(f"error: no softtilt sources under {SRC}", file=sys.stderr)
        return 2

    rows = []
    print(f"{'k':>3}{'cells':>8}" + "".join(f"{s:>26}" for s in STAGES))
    for k in LADDER:
        row = {"k": k, "cells": k ** 3}
        for stage in STAGES:
            argv = [sys.executable, __file__, "--stage", stage, "--k", str(k),
                    "--seed", str(args.seed)]
            try:
                proc = subprocess.run(argv, capture_output=True, text=True,
                                      timeout=args.timeout, check=True)
                row[stage] = json.loads(proc.stdout)
            except subprocess.TimeoutExpired:
                row[stage] = f"timeout>{args.timeout:g}s"
        rows.append(row)
        cells = "".join(
            f"{row[s]:>26.4g}" if isinstance(row[s], float) else f"{row[s]:>26}" for s in STAGES
        )
        print(f"{k:>3}{k ** 3:>8}{cells}", flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    from run import provenance

    record = {
        "provenance": provenance(),
        "seed": args.seed,
        "timeout_s": args.timeout,
        "direction": "x_given_yz",
        "rows": rows,
    }
    (out / f"ladder-seed{args.seed}.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
