"""Run the benchmark over many seeds and report how steady each metric is.

    python3 bench/stability.py --seeds 1-10 --sets 2
    python3 bench/stability.py --workloads batch --seeds 1-5 --sets 1

Reads BENCHMARK.json for the command, run_seconds and bounds. For each
workload and set it runs one benchmark per seed, one after another, and
prints for every end-to-end metric the median over seeds and the spread (the
distance between the first and third quartiles, as a share of the median).
With two or more sets it also prints how far any set's median moved from
the first set's, in either direction, and whether every seed's report digest
repeated. Exits 1 when a spread or a move exceeds the metric's bound, when an
operation failed, or when a digest differed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_one(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, str]:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, details["digests"]["workload"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seed_list = seeds(args.seeds)

    ok = True
    summary: dict = {}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seed_list:
                result, digest = run_one(spec, workload, seed, args.trace)
                runs.append((result, digest))
                print(f"{workload} set {s + 1} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
            sets.append(runs)
        failed = sum(r["failed"] for runs in sets for r, _ in runs)
        attempted = sum(r["attempted"] for runs in sets for r, _ in runs)
        incorrect = sum(not r["correct"] for runs in sets for r, _ in runs)
        digests_ok = all(
            [d for _, d in runs] == [d for _, d in sets[0]] for runs in sets
        )
        ok &= failed == 0 and incorrect == 0 and digests_ok
        print(f"\n{workload}: {len(seed_list)} seeds x {args.sets} sets, "
              f"failed_ratio {failed / attempted:.3g} ({failed} of {attempted}), "
              f"incorrect runs {incorrect}, digests repeat across sets: {digests_ok}")
        header = "".join(f"{'median ' + str(i + 1):>13}{'spread':>8}" for i in range(args.sets))
        print(f"  {'metric':<44}{'unit':>6}{'bound':>7}{header}{'move':>8}  ok")
        summary[workload] = {}
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            cols, medians, spreads = "", [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r, _ in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values) if len(values) > 1 else 0.0)
                cols += f"{medians[-1]:>13.5g}{spreads[-1]:>8.3f}"
            move = max(abs(med / medians[0] - 1) for med in medians) if medians[0] else 0.0
            good = True
            if bound is not None:
                good = move <= bound and max(spreads) <= bound
                ok &= good
            summary[workload][name] = {"medians": medians, "spreads": spreads, "move": move}
            print(f"  {name:<44}{m['unit']:>6}{bound if bound is not None else '-':>7}"
                  f"{cols}{move:>8.3f}  {'ok' if good else 'NO'}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"stability-trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
