"""Acceptance gate: nine numbered criteria, one printed pass/fail line each.

Each test computes its verdict, prints `criterion N (<name>): PASS|FAIL`,
and only then asserts, so the full scoreboard is visible under `pytest -s`
even when something fails. Random instances come from seeded generators;
reruns are bit-for-bit repeatable.
"""

from __future__ import annotations

import json
import math
import random
from functools import lru_cache

from softtilt import (
    Assignment,
    CertificateStatus,
    CountableFamily,
    Direction,
    DistVector,
    RewardTable,
    SolverConfig,
    apply_gauge,
    build_problem,
    calibrate_rewards,
    check_admissibility,
    commutativity_residual,
    conditional,
    construct_posterior,
    fixture_path,
    gauge_equivalent,
    identify_interaction,
    joint_f3,
    kl_decomposition_residual,
    kl_divergence,
    log_normalizer_truncated,
    objective_value,
    pmi,
    solve_tilt,
    total_variation,
)
from softtilt.cli import main as cli_main
from softtilt.io import dumps_report
from helpers import (
    grid_problem,
    joint_to_doc,
    random_baseline,
    random_candidate,
    random_joint,
    random_problem,
    random_terminals,
    sparse_joint,
)

FWD = Direction(target=("X",), base=("Y",), observed=("Z",))
N_SUITE = 200
N_CANDIDATES = 1000


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({name}): {detail}"


@lru_cache(maxsize=1)
def candidate_sweep():
    """One pass over 200 problems x 1,000 candidates, shared by 1 and 2."""
    rng = random.Random(0x5EED0102)
    worst_overshoot = -math.inf
    worst_kl = 0.0
    for _ in range(N_SUITE):
        problem = random_problem(rng)
        solution = solve_tilt(problem)
        alpha = problem.config.alpha
        candidates = [solution.optimizer]
        candidates += [random_candidate(rng, problem) for _ in range(N_CANDIDATES)]
        for candidate in candidates:
            objective = objective_value(problem, candidate)
            worst_overshoot = max(worst_overshoot, objective - solution.soft_value)
            decomposition = solution.soft_value - kl_divergence(candidate, solution.optimizer) / alpha
            worst_kl = max(worst_kl, abs(objective - decomposition))
        # the packaged residual must agree with the inlined identity
        for candidate in candidates[:4]:
            worst_kl = max(worst_kl, kl_decomposition_residual(problem, candidate))
    return worst_overshoot, worst_kl


def test_criterion_1_tilt_optimality():
    worst_overshoot, _ = candidate_sweep()
    rng = random.Random(0x5EED0103)
    worst_gap = 0.0
    worst_grid_overshoot = -math.inf
    pitch = 1e-3
    for _ in range(N_SUITE):
        problem = grid_problem(rng)
        solution = solve_tilt(problem)
        best = -math.inf
        for i in range(1001):
            u = i * pitch
            candidate = DistVector(problem.prior.over, (u, 1.0 - u))
            best = max(best, objective_value(problem, candidate))
        worst_gap = max(worst_gap, solution.soft_value - best)
        worst_grid_overshoot = max(worst_grid_overshoot, best - solution.soft_value)
    ok = worst_overshoot <= 1e-10 and worst_gap <= 1e-5 and worst_grid_overshoot <= 1e-10
    verdict(
        1,
        "tilt optimality",
        ok,
        f"max candidate overshoot {worst_overshoot:.3e}, grid gap {worst_gap:.3e}",
    )


def test_criterion_2_kl_decomposition():
    _, worst_kl = candidate_sweep()
    verdict(2, "kl decomposition", worst_kl <= 1e-10, f"max residual {worst_kl:.3e}")


def test_criterion_3_identification_round_trip():
    rng = random.Random(0x5EED0300)
    worst_tv = 0.0
    for _ in range(N_SUITE):
        joint = random_joint(rng)
        terminals = random_terminals(rng, joint)
        baseline = random_baseline(rng, joint, FWD.conditioning)
        alpha = 10.0 ** rng.uniform(-1.0, 1.0)
        calib = calibrate_rewards(joint, FWD, terminals, alpha=alpha, baseline=baseline)
        config = SolverConfig(alpha=alpha)
        for ctx in calib.rewards.contexts():
            solution = solve_tilt(build_problem(joint, terminals, config, calib.rewards, ctx))
            bayes = conditional(joint, FWD.target, ctx)
            worst_tv = max(worst_tv, total_variation(solution.optimizer, bayes))
    verdict(3, "identification round trip", worst_tv <= 1e-10, f"max tv {worst_tv:.3e}")


def test_criterion_4_gauge_invariance():
    rng = random.Random(0x5EED0400)
    worst_tv = 0.0
    worst_value_shift = 0.0
    worst_recovery = 0.0
    for _ in range(N_SUITE):
        joint = random_joint(rng)
        terminals = random_terminals(rng, joint)
        alpha = 10.0 ** rng.uniform(-1.0, 1.0)
        calib = calibrate_rewards(joint, FWD, terminals, alpha=alpha)
        shift = random_baseline(rng, joint, FWD.conditioning)
        shifted, _ = apply_gauge(calib.rewards, calib.context_values, shift)
        config = SolverConfig(alpha=alpha)
        for ctx in calib.rewards.contexts():
            plain = solve_tilt(build_problem(joint, terminals, config, calib.rewards, ctx))
            moved = solve_tilt(build_problem(joint, terminals, config, shifted, ctx))
            c = shift.value(ctx)
            worst_tv = max(worst_tv, total_variation(plain.optimizer, moved.optimizer))
            worst_value_shift = max(
                worst_value_shift, abs(moved.soft_value - plain.soft_value - c)
            )
        comparison = gauge_equivalent(
            (calib.rewards, terminals), (shifted, terminals), joint
        )
        assert comparison.equivalent
        for ctx, recovered in comparison.shifts.items():
            worst_recovery = max(worst_recovery, abs(recovered - shift.value(ctx)))
    ok = worst_tv <= 1e-12 and worst_value_shift <= 1e-12 and worst_recovery <= 1e-12
    verdict(
        4,
        "gauge invariance",
        ok,
        f"max tv {worst_tv:.3e}, value-shift error {worst_value_shift:.3e}, "
        f"recovery error {worst_recovery:.3e}",
    )


def test_criterion_5_pmi_properties():
    rng = random.Random(0x5EED0500)
    worst_symmetry = 0.0
    worst_admissibility = 0.0
    for _ in range(N_SUITE):
        joint = random_joint(rng)
        for cell, _ in joint.support():
            x = cell.restrict(FWD.target)
            y = cell.restrict(FWD.base)
            z = cell.restrict(FWD.observed)
            worst_symmetry = max(
                worst_symmetry, abs(pmi(joint, x, z, y) - pmi(joint, z, x, y))
            )
        for direction in (FWD, FWD.swapped()):
            table = identify_interaction(joint, direction)
            residuals = check_admissibility(table, joint)
            worst_admissibility = max(worst_admissibility, max(residuals.values()))
    ok = worst_symmetry <= 1e-12 and worst_admissibility <= 1e-10
    verdict(
        5,
        "pmi symmetry and admissibility",
        ok,
        f"max asymmetry {worst_symmetry:.3e}, max residual {worst_admissibility:.3e}",
    )


def test_criterion_6_commutativity():
    rng = random.Random(0x5EED0600)
    worst = 0.0
    stash = []
    for index in range(N_SUITE):
        joint = random_joint(rng)
        terminals = random_terminals(rng, joint)
        alpha = 10.0 ** rng.uniform(-1.0, 1.0)
        fwd = calibrate_rewards(joint, FWD, terminals, alpha=alpha)
        swp = calibrate_rewards(joint, FWD.swapped(), terminals, alpha=alpha)
        residuals = commutativity_residual(
            fwd.rewards, fwd.context_values, swp.rewards, swp.context_values
        )
        worst = max(worst, max(residuals.values()))
        if index % 40 == 0:
            stash.append((fwd, swp))
    delta = 1e-2
    worst_at_triple = 0.0
    worst_elsewhere = 0.0
    for fwd, swp in stash:
        ctx = fwd.rewards.contexts()[0]
        outcome = fwd.rewards.outcomes_for(ctx)[-1]
        triple = ctx.union(outcome)
        entries = {c: dict(row) for c, row in fwd.rewards.entries.items()}
        entries[ctx][outcome] += delta
        bumped = RewardTable(direction=FWD, entries=entries, convention="perturbed")
        residuals = commutativity_residual(
            bumped, fwd.context_values, swp.rewards, swp.context_values
        )
        worst_at_triple = max(worst_at_triple, abs(residuals[triple] - delta))
        worst_elsewhere = max(
            worst_elsewhere, max(v for t, v in residuals.items() if t != triple)
        )
    ok = worst <= 1e-10 and worst_at_triple <= 1e-12 and worst_elsewhere <= 1e-10
    verdict(
        6,
        "cross-direction commutativity",
        ok,
        f"max residual {worst:.3e}, perturbation error {worst_at_triple:.3e}, "
        f"leak {worst_elsewhere:.3e}",
    )


def test_criterion_7_countable_support():
    finite_logz, finite_cert = log_normalizer_truncated(
        CountableFamily.geometric_linear(0.5, math.log(1.5)), 1e-12
    )
    finite_ok = (
        finite_cert.status is CertificateStatus.FINITE
        and abs(finite_logz - math.log(2.0)) <= 1e-9
    )
    divergent_logz, divergent_cert = log_normalizer_truncated(
        CountableFamily.geometric_linear(0.5, math.log(3.0)), 1e-12
    )
    divergent_ok = (
        divergent_cert.status is CertificateStatus.DIVERGED and divergent_logz == math.inf
    )
    rng = random.Random(0x5EED0700)
    worst_embed = 0.0
    for _ in range(N_SUITE):
        problem = random_problem(rng)
        solution = solve_tilt(problem)
        embedded_logz, cert = log_normalizer_truncated(
            CountableFamily.from_finite(problem), 1e-12
        )
        assert cert.status is CertificateStatus.FINITE
        worst_embed = max(worst_embed, abs(embedded_logz - solution.log_normalizer))
    ok = finite_ok and divergent_ok and worst_embed <= 1e-12
    verdict(
        7,
        "countable support",
        ok,
        f"geometric log-normalizer error {abs(finite_logz - math.log(2.0)):.3e}, "
        f"divergent status {divergent_cert.status.value}, embed error {worst_embed:.3e}",
    )


def test_criterion_8_f3_spot_checks():
    joint = joint_f3()
    value = pmi(joint, {"X": "0"}, {"Z": "0"}, {"Y": "0"})
    pmi_ok = abs(value - math.log(1.6)) <= 1e-12
    prior = conditional(joint, FWD.target, {"Y": "0"})
    table = identify_interaction(joint, FWD)
    ctx = Assignment({"Y": "0", "Z": "0"})
    signal = [table.values[ctx][outcome] for outcome in prior.outcomes()]
    posterior = construct_posterior(prior, signal)
    construct_ok = (
        abs(posterior.probs[0] - 0.8) <= 1e-12 and abs(posterior.probs[1] - 0.2) <= 1e-12
    )
    verdict(
        8,
        "closed-form spot checks",
        pmi_ok and construct_ok,
        f"pmi error {abs(value - math.log(1.6)):.3e}, "
        f"posterior ({posterior.probs[0]:.17g}, {posterior.probs[1]:.17g})",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    f3 = str(fixture_path("f3.json"))
    fwd_prefix = tmp_path / "fwd"
    swp_prefix = tmp_path / "swp"
    assert cli_main(["identify", f3, "--out", str(fwd_prefix)]) == 0
    assert cli_main(["identify", f3, "--direction", "z_given_yx", "--out", str(swp_prefix)]) == 0
    check_argv = [
        "check",
        f3,
        "--rewards",
        f"{fwd_prefix}.rewards.json",
        "--rewards-swapped",
        f"{swp_prefix}.rewards.json",
    ]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code_first = cli_main(check_argv + ["--out", str(first)])
    code_second = cli_main(check_argv + ["--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{", encoding="utf-8")
    schema_code = cli_main(["solve", str(malformed)])

    sparse = tmp_path / "sparse.json"
    sparse.write_text(dumps_report(joint_to_doc(sparse_joint())) + "\n", encoding="utf-8")
    zero_mass_code = cli_main(["solve", str(sparse)])

    with open(f"{fwd_prefix}.rewards.json", encoding="utf-8") as fh:
        rewards_doc = json.load(fh)
    rewards_doc["entries"] = [
        e
        for e in rewards_doc["entries"]
        if (e["context"]["Y"], e["context"]["Z"]) != ("0", "0")
    ]
    gapped = tmp_path / "gapped.json"
    gapped.write_text(json.dumps(rewards_doc), encoding="utf-8")
    coverage_code = cli_main(["check", f3, "--rewards", str(gapped)])
    capsys.readouterr()

    ok = (
        code_first == 0
        and code_second == 0
        and identical
        and schema_code == 2
        and zero_mass_code == 3
        and coverage_code == 4
    )
    verdict(
        9,
        "cli determinism and exit codes",
        ok,
        f"byte-identical {identical}, exit codes ({schema_code}, {zero_mass_code}, "
        f"{coverage_code})",
    )
