"""softtilt benchmark: times the CLI subcommands as a user runs them.

    python3 bench/run.py --workload dense --seed 1 --seconds 60 --trace 0

Closed loop, one client, no threads: this process calls
`softtilt.cli.main(argv)` once per job, one after another, on inputs the
workload generates from --seed before timing starts. Passes over the
joints' job list alternate with passes over the countable family set, each
kind taking half the run. Every invocation is verified outside the timed
regions. The
table printed ends, as the last line, with one JSON object holding the
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1). Full results, report digests and, when traced, the spans go to
bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

import tracer as tracing
import workloads
from verify import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fresh interpreters timed for setup_s, spread evenly over the run
SETUP_SAMPLES = 24
# the two kinds of pass: the joints' job list and the countable family set
UNITS = ("joints", "families")
# largest share of a traced pass's invocation time that may lie outside every span
UNATTRIBUTED_LIMIT = 0.01

END_TO_END = (
    ("setup_s", "s"),
    ("identify_s", "s"),
    ("solve_s", "s"),
    ("construct_s", "s"),
    ("check_gauge_s", "s"),
    ("check_admissibility_s", "s"),
    ("check_decomposition_s", "s"),
    ("check_commute_s", "s"),
    ("countable_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "softtilt" / "__init__.py").is_file():
        print(f"error: no softtilt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import softtilt.cli

    if Path(softtilt.cli.__file__).resolve().parents[1] != SRC:
        print(f"error: softtilt imported from {softtilt.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        wl = workloads.build(args.workload, args.seed, work)
        return Run(args, wl).main()
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ------------------------------------------------------------- measuring

def setup_seconds() -> float:
    """Seconds from a fresh interpreter to `import softtilt.cli` done."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import softtilt.cli"
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return perf_counter() - start


def invoke(argv: list[str]) -> tuple[int, int, str, str]:
    """One in-process CLI call: (wall ns, exit code, stdout, stderr)."""
    cli = sys.modules["softtilt.cli"]  # looked up per call, so tracing patches apply
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter_ns()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a crash
            code = -1
            err.write(traceback.format_exc())
    return perf_counter_ns() - start, code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One benchmark run: passes, verification, metrics and output."""

    def __init__(self, args, wl):
        self.args = args
        self.wl = wl
        self.tracer = tracing.Tracer() if args.trace else None
        self.times: dict[str, list[float]] = defaultdict(list)  # group -> untraced seconds
        self.reference: dict[str, dict] = {}  # job label -> digests of its first pass
        self.failures: list[dict] = []
        self.attempted = 0
        self.passes = 0
        self.setup: list[float] = []
        self.walls = {u: {"traced": [], "untraced": []} for u in UNITS}
        self.layers: dict[str, list[dict]] = {u: [] for u in UNITS}  # per traced pass
        self.peak_rss_mb: float | None = None
        self.trace_problems: list[str] = []

    # ------------------------------------------------------------ passes

    def main(self) -> int:
        jobs = {
            "joints": [j for j in self.wl.jobs if j.kind != "countable"],
            "families": [j for j in self.wl.jobs if j.kind == "countable"],
        }
        setup_seconds()  # untimed: writes the bytecode cache
        self.begin = perf_counter()
        self.setup_every = self.args.seconds / SETUP_SAMPLES
        deadline = self.begin + self.args.seconds
        spent = dict.fromkeys(UNITS, 0.0)
        while True:
            # the kind of pass that has had less time goes next, so both get
            # half the run and their repetitions spread over all of it
            unit = min(UNITS, key=spent.get)
            walls = self.walls[unit]
            covered = all(w["untraced"] and (self.tracer is None or w["traced"])
                          for w in self.walls.values())
            if covered and perf_counter() + walls["untraced"][-1] > deadline:
                break
            traced = self.tracer is not None and len(walls["untraced"]) > len(walls["traced"])
            spent[unit] += self.run_pass(unit, jobs[unit], traced)
        while len(self.setup) < SETUP_SAMPLES:
            self.setup.append(setup_seconds())
        return self.report()

    def maybe_setup(self) -> None:
        due = self.begin + len(self.setup) * self.setup_every
        if len(self.setup) < SETUP_SAMPLES and perf_counter() >= due:
            self.setup.append(setup_seconds())

    def run_pass(self, unit: str, jobs, traced: bool) -> float:
        """One pass over the job list; returns its summed invocation time in seconds."""
        for job in jobs:
            for path in job.artifacts:
                path.unlink(missing_ok=True)
        gc.collect()
        if traced:
            self.tracer.install()
            first = len(self.tracer.spans)
            self.tracer.reset_counts()
        records = []
        try:
            for job in jobs:
                if job.kind == "countable" and self.peak_rss_mb is None:
                    # read before the ratio-one family's two million log-terms
                    # can set the peak, so that the joints' memory shows
                    self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                self.maybe_setup()
                if traced:
                    self.tracer.begin_invocation()
                records.append(invoke(job.argv))
        finally:
            if traced:
                self.tracer.uninstall()
        wall = sum(r[0] for r in records) / 1e9
        self.check(jobs, records)
        if traced:
            self.walls[unit]["traced"].append(wall)
            self.layers[unit].append(self.layer_pass(first, records))
        else:
            self.walls[unit]["untraced"].append(wall)
            for job, record in zip(jobs, records):
                self.times[job.group].append(record[0] / 1e9)
        return wall

    def check(self, jobs, records) -> None:
        """Verify the first pass of each job; later passes must repeat its digests."""
        self.passes += 1
        for job, (_, code, stdout, stderr) in zip(jobs, records):
            self.attempted += 1
            texts = {}
            for path in job.artifacts:
                try:
                    texts[path.name] = path.read_text(encoding="utf-8")
                except OSError:
                    texts[path.name] = ""
            digest = {"exit": code, "stdout": _sha(stdout)}
            digest.update({name.split(".", 1)[1]: _sha(t) for name, t in texts.items()})
            if stderr:
                digest["stderr"] = _sha(stderr)
            first = self.reference.setdefault(job.label, digest)
            problem = None
            if first is digest:
                problem = verify(job, code, stdout, stderr, texts)
            elif digest != first:
                problem = verify(job, code, stdout, stderr, texts) or "output differs from pass 1"
            if problem:
                self.failures.append({"pass": self.passes, "job": job.label, "problem": problem})

    # ----------------------------------------------------------- metrics

    def typical(self, group: str) -> float:
        """90th percentile of a group's repetitions of identical work.

        The test machine's speed switches between a contended regime, which
        holds most of the time, and faster spells. A high percentile stays in
        the contended regime unless the machine is quiet for nearly a whole
        run; the median and the minimum flip between regimes from run to run.
        """
        return quantile(self.times[group], 90)

    def end_to_end(self) -> dict[str, dict]:
        groups: dict[str, set[str]] = defaultdict(set)
        for job in self.wl.jobs:
            groups[job.kind].add(job.group)
        rows: dict[str, dict] = {}
        for kind, names in groups.items():
            if kind != "countable":
                rows[f"{kind}_s"] = {
                    "value": statistics.fmean(self.typical(g) for g in names),
                    "raw": [t for g in names for t in self.times[g]],
                }
        # Whole passes: a run holds only 5 to 14 of each kind, so one slow
        # spell of the machine moves their 90th percentile by up to the
        # regimes' factor of two. The slowest pass lands in the slow regime
        # whenever any part of the run does.
        joints, families = (self.walls[u]["untraced"] for u in UNITS)
        rows["countable_s"] = {"value": max(families), "raw": families}
        rows["wall_s"] = {
            "value": max(joints) + max(families),
            "raw": [a + b for a, b in zip(joints, families)],
        }
        rows["setup_s"] = {"value": quantile(self.setup, 90), "raw": self.setup}
        rows["peak_rss_mb"] = {"value": self.peak_rss_mb, "raw": [self.peak_rss_mb]}
        out = {}
        for name, unit in END_TO_END:
            raw = rows[name]["raw"]
            out[name] = {
                "value": rows[name]["value"], "unit": unit, "median": statistics.median(raw),
                "p90": quantile(raw, 90), "count": len(raw), "samples": raw,
            }
        return out

    def layer_pass(self, first: int, records) -> dict[str, float]:
        """Per-layer sums of one traced pass, whose spans start at spans[first].

        Checks the spans' structure on the way: each invocation has exactly
        one root span, `cli.main`; every span was closed and lies within its
        parent's interval and invocation; and the invocation time outside
        every span stays within UNATTRIBUTED_LIMIT of the pass.
        """
        spans = self.tracer.spans
        self_ns = self.tracer.self_times(first)
        out = dict.fromkeys(
            [f"{n}.{k}" for n in (*tracing.SPAN_NAMES, tracing.ACCOUNTING) for k in ("calls", "self_s")],
            0,
        )
        last = self.tracer.invocation
        invocations = range(last - len(records) + 1, last + 1)
        per_invocation: dict[int, int] = defaultdict(int)
        roots: dict[int, list[str]] = defaultdict(list)
        problems = self.trace_problems
        for index, own in enumerate(self_ns, first):
            name, parent, start, end, inv = spans[index]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own / 1e9
            per_invocation[inv] += own
            if inv not in invocations:
                problems.append(f"span {index} ({name}) is outside every invocation")
            if end < start:
                problems.append(f"span {index} ({name}) was never closed")
            if parent == -1:
                roots[inv].append(name)
                continue
            _, _, p_start, p_end, p_inv = spans[parent]
            if p_inv != inv or start < p_start or end > p_end:
                problems.append(f"span {index} ({name}) lies outside its parent span {parent}")
        for inv in invocations:
            if roots[inv] != ["cli.main"]:
                problems.append(f"invocation {inv}: root spans {roots[inv]}, not ['cli.main']")
        wall = sum(r[0] for r in records)
        gap = wall - sum(per_invocation[inv] for inv in invocations)
        if gap > UNATTRIBUTED_LIMIT * wall:
            problems.append(f"{gap / wall:.4f} of the pass's invocation time lies outside "
                            f"every span; the limit is {UNATTRIBUTED_LIMIT}")
        out.update(dict.fromkeys(tracing.COUNTERS, 0))
        out.update(self.tracer.counts)
        out["dist.marginal.distinct"] = len(self.tracer.marginal_keys)
        out["gap_s"] = gap / 1e9
        out["wall_s"] = wall / 1e9
        return out

    def per_layer(self) -> dict[str, dict]:
        """Each metric's 90th percentile over the traced passes of each kind, summed."""
        total: dict[str, float] = defaultdict(int)
        for passes in self.layers.values():
            for key in passes[0]:
                values = [p[key] for p in passes]
                # counts repeat exactly from pass to pass; keep them whole
                total[key] += values[0] if len(set(values)) == 1 else quantile(values, 90)
        calls = total["dist.marginal.calls"]
        total["dist.marginal.distinct_ratio"] = total.pop("dist.marginal.distinct") / max(calls, 1)
        total["trace.unattributed_share"] = total.pop("gap_s") / total.pop("wall_s")
        total["trace.overhead_ratio"] = (
            sum(quantile(w["traced"], 90) for w in self.walls.values())
            / sum(quantile(w["untraced"], 90) for w in self.walls.values()))
        return {name: {"value": value, "unit": layer_unit(name)} for name, value in sorted(total.items())}

    # ------------------------------------------------------------ output

    def report(self) -> int:
        args = self.args
        failed = len({(f["pass"], f["job"]) for f in self.failures})
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        labels = [job.label for job in self.wl.jobs]
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": provenance(),
            "sizes": self.wl.sizes,
            "passes": {u: {k: len(v) for k, v in w.items()} for u, w in self.walls.items()},
            "attempted": self.attempted,
            "failed": failed,
            "failed_ratio": failed / self.attempted,
            "failures": self.failures[:50],
            "digests": {
                "workload": _sha(json.dumps([self.reference[k] for k in labels], sort_keys=True)),
                "jobs": {k: self.reference[k] for k in labels},
            },
        }
        print(f"softtilt benchmark  workload={args.workload} seed={args.seed} "
              f"trace={args.trace} passes={result['passes']}")
        if self.tracer is None:
            rows = self.end_to_end()
            result["end_to_end"] = rows
            metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in rows.items()}
            print(f"  {'metric':<24}{'value':>12}{'median':>12}{'p90':>12}{'count':>7}  unit")
            for name, r in rows.items():
                print(f"  {name:<24}{r['value']:>12.5g}{r['median']:>12.5g}{r['p90']:>12.5g}"
                      f"{r['count']:>7}  {r['unit']}")
        else:
            metrics = self.per_layer()
            result["per_layer"] = {k: v["value"] for k, v in metrics.items()}
            result["trace_problems"] = self.trace_problems[:50]
            spans_path = OUT / f"{stem}.spans.jsonl.gz"
            self.tracer.write(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
            for name, m in metrics.items():
                print(f"  {name:<48}{m['value']:>14.6g}  {m['unit']}")
        print(f"  {'failed_ratio':<24}{failed / self.attempted:>12.5g}  "
              f"({failed} of {self.attempted} operations)")
        print(f"  report digest {result['digests']['workload']}")
        for f in self.failures[:10]:
            print(f"  FAILED pass {f['pass']} {f['job']}: {f['problem']}")
        for p in self.trace_problems[:10]:
            print(f"  TRACE {p}")
        (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        correct = failed == 0 and not self.trace_problems
        print(json.dumps({"correct": correct, "attempted": self.attempted, "failed": failed,
                          "metrics": metrics}))
        return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or name in ("dist.cells_scanned", "countable.terms"):
        return "count"
    if name.startswith("io.bytes"):
        return "bytes"
    return "ratio"


# ----------------------------------------------------------- provenance

def git_revision() -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package's files, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "softtilt").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


if __name__ == "__main__":
    sys.exit(main())
