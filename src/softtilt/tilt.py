"""Single-context regularized update: closed-form tilt and its value.

The objective per candidate q is
    J(q) = sum_x q(x) [ r(x) - (1/alpha) log(q(x)/p(x)) + V(x) ],
maximized in closed form by tilting the prior:
    q*(x) proportional to p(x) exp(alpha (r(x) + V(x))),
with attained value (1/alpha) log sum_x p(x) exp(alpha (r(x) + V(x))).
All exponent sums are max-shifted; float sums are compensated (fsum).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from math import fsum
from operator import sub

from .dist import DistVector
from .errors import DegenerateProblem, SupportViolation, ValidationError

_MIN_NORMAL = sys.float_info.min


def first_invalid(xs) -> int | None:
    """Index of the first NaN or +inf entry of the sequence xs, or None.

    A clean sequence costs two C-level passes and no Python loop.
    """
    if math.inf in xs or any(map(math.isnan, xs)):
        return next(i for i, x in enumerate(xs) if math.isnan(x) or x == math.inf)
    return None


def require_log_terms(xs) -> None:
    """Raise ValidationError naming the first NaN or +inf entry of the sequence xs."""
    i = first_invalid(xs)
    if i is not None:
        raise ValidationError(f"logsumexp requires values in [-inf, inf), got {xs[i]!r}")


def shifted_log_sum(xs, shift: float) -> float:
    """shift + log sum_x exp(x - shift) for the finite max `shift` of xs.

    -inf entries contribute exp(-inf) == 0.0, which leaves the correctly
    rounded fsum unchanged, so they need no filtering pass.
    """
    return shift + math.log(fsum(map(math.exp, map(sub, xs, repeat(shift)))))


def logsumexp(values) -> float:
    """Max-shifted log of a sum of exponentials; -inf entries drop out."""
    xs = values if isinstance(values, (list, tuple)) else list(values)
    require_log_terms(xs)
    if not xs:
        return -math.inf
    m = max(xs)
    if m == -math.inf:
        return -math.inf
    return shifted_log_sum(xs, m)


@dataclass(frozen=True)
class SolverConfig:
    """Inverse temperature for one problem batch."""

    alpha: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha) or self.alpha <= 0:
            raise ValidationError(f"alpha must be finite and > 0, got {self.alpha!r}")


@dataclass(frozen=True)
class SoftUpdateProblem:
    """Prior plus per-outcome reward and terminal-value vectors.

    Vectors are aligned with the prior's outcome ordering. Entries at
    outcomes outside the prior's support are ignored, not validated.
    """

    prior: DistVector
    reward: tuple[float, ...]
    terminal: tuple[float, ...]
    config: SolverConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "reward", tuple(float(v) for v in self.reward))
        object.__setattr__(self, "terminal", tuple(float(v) for v in self.terminal))
        n = len(self.prior.probs)
        if len(self.reward) != n or len(self.terminal) != n:
            raise ValidationError(
                f"reward/terminal must have length {n}, got "
                f"{len(self.reward)}/{len(self.terminal)}"
            )
        for i in self.prior.support():
            if not math.isfinite(self.reward[i]):
                raise ValidationError(f"reward at supported outcome {i} is not finite")
            if not math.isfinite(self.terminal[i]):
                raise ValidationError(f"terminal at supported outcome {i} is not finite")

    def payoff(self, i: int) -> float:
        """alpha (r + V) at outcome i; meaningful on the prior support."""
        return self.config.alpha * (self.reward[i] + self.terminal[i])


@dataclass(frozen=True)
class SoftSolution:
    optimizer: DistVector
    soft_value: float
    log_normalizer: float


def solve_tilt(problem: SoftUpdateProblem) -> SoftSolution:
    """Closed-form maximizer, log-normalizer, and value for one problem.

    soft_value == log_normalizer / alpha by construction.
    """
    p = problem.prior.probs
    support = [i for i, pi in enumerate(p) if pi > 0]
    if not support:
        raise DegenerateProblem("prior has empty support")
    s = {i: problem.payoff(i) for i in support}
    shift = max(s.values())
    weights = [0.0] * len(p)
    for i in support:
        weights[i] = p[i] * math.exp(s[i] - shift)
    z = fsum(weights)
    log_normalizer = shift + math.log(z)
    probs = tuple(w / z for w in weights)
    optimizer = DistVector(problem.prior.over, probs)
    return SoftSolution(
        optimizer=optimizer,
        soft_value=log_normalizer / problem.config.alpha,
        log_normalizer=log_normalizer,
    )


def soft_value(problem: SoftUpdateProblem) -> float:
    """Attained maximum of the objective (the certainty-equivalent value)."""
    return solve_tilt(problem).soft_value


def _check_candidate(problem: SoftUpdateProblem, candidate: DistVector) -> None:
    if candidate.over != problem.prior.over:
        raise ValidationError("candidate is over a different variable group than the prior")
    for i, (q, p) in enumerate(zip(candidate.probs, problem.prior.probs)):
        if q > 0 and p == 0:
            raise SupportViolation(
                f"candidate puts mass {q!r} at outcome index {i} where the prior is zero"
            )


def _log_ratio(q: float, p: float) -> float:
    """log(q / p) for positive q and p, through the quotient when it is a normal double.

    A subnormal p can overflow the quotient to inf, and a tiny q can round it
    to zero or a subnormal; the difference of the two logs has neither problem.
    """
    r = q / p
    if _MIN_NORMAL <= r < math.inf:
        return math.log(r)
    return math.log(q) - math.log(p)


def objective_value(problem: SoftUpdateProblem, candidate: DistVector) -> float:
    """J(candidate), with the 0 log 0 terms dropped by convention."""
    _check_candidate(problem, candidate)
    alpha = problem.config.alpha
    p = problem.prior.probs
    terms = []
    for i, q in enumerate(candidate.probs):
        if q > 0:
            terms.append(
                q * (problem.reward[i] - _log_ratio(q, p[i]) / alpha + problem.terminal[i])
            )
    return fsum(terms)


def kl_divergence(q: DistVector, p: DistVector) -> float:
    """KL(q || p) in nats; requires q absolutely continuous w.r.t. p."""
    if q.over != p.over:
        raise ValidationError("distributions are over different variable groups")
    terms = []
    for i, (qi, pi) in enumerate(zip(q.probs, p.probs)):
        if qi > 0:
            if pi == 0:
                raise SupportViolation(f"KL undefined: q has mass at index {i} but p does not")
            terms.append(qi * _log_ratio(qi, pi))
    return fsum(terms)


def kl_decomposition_residual(problem: SoftUpdateProblem, candidate: DistVector) -> float:
    """|J(q) - (soft_value - KL(q || q*) / alpha)|; identically zero in exact math."""
    return _decomposition_residual(problem, solve_tilt(problem), candidate)


def _decomposition_residual(
    problem: SoftUpdateProblem, solution: SoftSolution, candidate: DistVector
) -> float:
    """kl_decomposition_residual given the problem's solution, so that probing
    one problem at many candidates solves it once."""
    lhs = objective_value(problem, candidate)
    rhs = solution.soft_value - kl_divergence(candidate, solution.optimizer) / problem.config.alpha
    return abs(lhs - rhs)
