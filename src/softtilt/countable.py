"""Log-normalizers over countable supports, with finiteness certificates.

The quantity is log Z with Z = sum_n p_n exp(payoff(n)), payoff already
scaled by alpha. Z is estimated by partial sums at doubling truncation
points; a user-supplied nonincreasing bound on the *tilted* tail
sum_{n>N} p_n exp(payoff(n)) certifies convergence when it drops below
eps_tail times the partial sum. The outcome is three-valued: 'finite' with
a certificate, 'diverged' when partial sums explode under nondecreasing
terms while the tail bound is still +inf, or 'inconclusive' when the budget
runs out. All accumulation happens in log space, so large payoffs cannot
overflow the partial sums.

The built-in geometric families build their terms a chunk at a time with
C-level arithmetic over whole lists, bit for bit what their per-n callables
compute; other families are called once per n. A checkpoint's partial sum
is taken only where an upper bound on it cannot rule out both a certificate
and divergence, and always at the last checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import add, mul, sub
from typing import Callable

from .errors import InvalidBounds, NotFinite, ValidationError
from .tilt import SoftUpdateProblem, first_invalid, require_log_terms, shifted_log_sum

DEFAULT_START = 16
# max truncation point is start << max_doublings; 16 << 17 keeps the
# worst-case (inconclusive) run around two million terms
DEFAULT_MAX_DOUBLINGS = 17
# partial sums never exceed the true Z, so no family with Z below this
# threshold can ever be declared diverged
DEFAULT_EXPLOSION_LOG = 500.0
# log-terms are built and validated this many at a time: enough to amortize
# the per-chunk overhead, few enough that the chunk's temporary lists stay
# small next to the retained terms
_CHUNK = 1 << 14


class CertificateStatus(str, Enum):
    FINITE = "finite"
    DIVERGED = "diverged"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CountableFamily:
    """A countably supported prior with an already-scaled payoff rule.

    The prior is supplied as log mass so geometric-type families stay exact
    far past the point where q^n underflows a float (underflowed masses
    would silently hide divergence). tail_bound(N) must bound
    sum_{n>N} p_n exp(payoff(n)) from above and be nonincreasing in N; it
    may be +inf where no finite bound is available.

    Call contract: each callable is called at most once per n. payoff(n) is
    called only where log_prior_mass(n) is finite. The solver evaluates the
    prior a chunk of terms ahead of the payoff, so an exception raised in
    log_prior_mass at n can surface before the payoff at some m < n is
    evaluated. The built-in geometric families are the exception: their
    callables are affine in n and the solver computes their values over a
    whole chunk itself, calling neither per n unless the chunk's terms sum
    to NaN or +inf.
    """

    log_prior_mass: Callable[[int], float]
    payoff: Callable[[int], float]
    tail_bound: Callable[[int], float]
    describe: str = "custom"

    @classmethod
    def from_split_bounds(
        cls,
        log_prior_mass: Callable[[int], float],
        prior_tail: Callable[[int], float],
        payoff: Callable[[int], float],
        payoff_sup: Callable[[int], float],
        describe: str = "split-bounds",
    ) -> "CountableFamily":
        """Combine a prior tail bound T(N) with a payoff sup bound B(N).

        The tilted tail is then bounded by T(N) exp(B(N)). Only usable when
        the payoff is bounded above on tails; for growing payoffs supply a
        direct tilted-tail bound instead.
        """

        def tail(n: int) -> float:
            t = prior_tail(n)
            if t < 0:
                raise InvalidBounds(f"prior tail bound at N={n} is negative: {t!r}")
            if t == 0:
                return 0.0
            s = payoff_sup(n)
            try:
                return t * math.exp(s)
            except OverflowError:  # exp(s) alone overflows; the product may not
                return _safe_exp(math.log(t) + s)

        return cls(log_prior_mass=log_prior_mass, payoff=payoff, tail_bound=tail, describe=describe)

    @classmethod
    def geometric_linear(cls, q: float, slope: float, intercept: float = 0.0) -> "CountableFamily":
        """Prior (1-q) q^n with payoff slope*n + intercept.

        The tilted series is geometric with ratio q e^slope, so the tail
        bound is exact: (1-q) e^intercept (q e^slope)^(N+1) / (1 - q e^slope)
        when the ratio is below one, +inf otherwise.
        """
        if not (0.0 < q < 1.0):
            raise ValidationError(f"geometric parameter must lie in (0, 1), got {q!r}")
        if not math.isfinite(slope) or not math.isfinite(intercept):
            raise ValidationError("payoff slope and intercept must be finite")
        log_q = math.log(q)
        log_head = math.log1p(-q)
        ratio = q * _exp_or_inf(slope)
        scale = (1.0 - q) * _exp_or_inf(intercept)
        # the log of a product that is a positive double, else the sum of the logs
        log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else log_q + slope
        log_scale = math.log(scale) if 0.0 < scale < math.inf else log_head + intercept

        def tail(n: int) -> float:
            if ratio >= 1.0:
                return math.inf
            return _bound_exp(log_scale + (n + 1) * log_ratio - math.log1p(-ratio))

        return cls(
            log_prior_mass=_Affine(log_head, log_q),
            payoff=_Affine(intercept, slope),
            tail_bound=tail,
            describe=f"geometric(q={q!r}) with linear payoff",
        )

    @classmethod
    def geometric_constant(cls, q: float, value: float) -> "CountableFamily":
        """Prior (1-q) q^n with a constant payoff."""
        if not (0.0 < q < 1.0):
            raise ValidationError(f"geometric parameter must lie in (0, 1), got {q!r}")
        if not math.isfinite(value):
            raise ValidationError("payoff value must be finite")
        log_q = math.log(q)
        log_head = math.log1p(-q)
        return cls(
            log_prior_mass=_Affine(log_head, log_q),
            # n * -0.0 is -0.0 for every n >= 0, and x + -0.0 is x bit for bit
            # (also for x = -0.0), so this payoff returns `value` itself
            payoff=_Affine(value, -0.0),
            tail_bound=lambda n: _bound_exp((n + 1) * log_q + value),
            describe=f"geometric(q={q!r}) with constant payoff",
        )

    @classmethod
    def from_finite(cls, problem: SoftUpdateProblem) -> "CountableFamily":
        """Embed a finite problem: zeros beyond the last outcome, exact tails."""
        probs = problem.prior.probs
        k = len(probs)
        payoffs = [problem.payoff(i) if probs[i] > 0 else 0.0 for i in range(k)]
        terms = [probs[i] * math.exp(payoffs[i]) if probs[i] > 0 else 0.0 for i in range(k)]
        suffix = [0.0] * (k + 1)
        for i in range(k - 1, -1, -1):
            suffix[i] = suffix[i + 1] + terms[i]

        def tail(n: int) -> float:
            return suffix[n + 1] if n + 1 < k else 0.0

        return cls(
            log_prior_mass=lambda n: (
                math.log(probs[n]) if n < k and probs[n] > 0 else -math.inf
            ),
            payoff=lambda n: payoffs[n] if n < k else 0.0,
            tail_bound=tail,
            describe=f"finite embedding ({k} outcomes)",
        )


class _Affine:
    """The callable n -> offset + n * step, also evaluated a chunk at a time."""

    __slots__ = ("offset", "step")

    def __init__(self, offset: float, step: float) -> None:
        self.offset = offset
        self.step = step

    def __call__(self, n: int) -> float:
        return self.offset + n * self.step

    def over(self, ns: list[float]):
        """Lazily, the value at each n of ns, which holds float(n): `int * float`
        converts the int exactly as float() does, so each value is bit for bit
        the call's."""
        return map(add, repeat(self.offset), map(mul, ns, repeat(self.step)))


@dataclass(frozen=True)
class TruncationCertificate:
    """What the truncation run established at its final N."""

    N: int
    partial: float
    tail_bound: float
    status: CertificateStatus
    log_partial: float


@dataclass(frozen=True)
class TruncatedTilt:
    """Truncated optimizer probabilities plus the certified tail fraction."""

    probs: tuple[float, ...]
    tail_mass: float
    certificate: TruncationCertificate


@dataclass
class _TruncationRun:
    status: CertificateStatus
    N: int
    log_partial: float
    tail_bound: float
    log_terms: list[float]


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _bound_exp(x: float) -> float:
    """exp(x) for an upper bound: never below the smallest positive double, so
    a bound that underflows cannot certify a tail as exactly zero."""
    return max(_safe_exp(x), math.ulp(0.0))


def _safe_exp(x: float) -> float:
    if x == -math.inf:
        return 0.0
    if x > 709.0:
        return math.inf
    return math.exp(x)


def _payoffs(family: CountableFamily, lo: int, lps: list[float]) -> list[float]:
    """Validated payoffs at n = lo, lo + 1, ... wherever the log prior mass lps is finite.

    Zero-mass positions get 0.0, which leaves their -inf log-term unchanged.
    """
    ns = range(lo, lo + len(lps))
    if -math.inf in lps:
        ss = [float(family.payoff(n)) if lp > -math.inf else 0.0 for n, lp in zip(ns, lps)]
    else:
        ss = list(map(float, map(family.payoff, ns)))
    i = first_invalid(ss)
    if i is not None:
        raise ValidationError(f"payoff at n={lo + i} must be in [-inf, inf), got {ss[i]!r}")
    return ss


def _term_chunk(family: CountableFamily, lo: int, hi: int) -> list[float]:
    """Log-terms log p_n + payoff(n) for lo <= n < hi.

    Invalid values raise the error, at the same n, that a scan evaluating
    the prior and then the payoff term by term would raise first.
    """
    prior, payoff = family.log_prior_mass, family.payoff
    if isinstance(prior, _Affine) and isinstance(payoff, _Affine):
        ns = list(map(float, range(lo, hi)))
        terms = list(map(add, prior.over(ns), payoff.over(ns)))
        # the sum is NaN or +inf if a term is (or if finite terms overflow);
        # such a chunk is redone term by term below, which raises the scan's
        # error at the scan's n, or keeps the term where the scan does
        if sum(terms) < math.inf:
            return terms
    lps = list(map(float, map(family.log_prior_mass, range(lo, hi))))
    i = first_invalid(lps)
    if i is not None:
        _payoffs(family, lo, lps[:i])
        raise ValidationError(
            f"log prior mass at n={lo + i} must be in [-inf, inf), got {lps[i]!r}"
        )
    return list(map(add, lps, _payoffs(family, lo, lps)))


def _truncate(
    family: CountableFamily,
    eps_tail: float,
    start: int,
    max_doublings: int,
    explosion_log: float,
) -> _TruncationRun:
    if not math.isfinite(eps_tail) or eps_tail <= 0:
        raise ValidationError(f"eps_tail must be finite and > 0, got {eps_tail!r}")
    if start < 1 or max_doublings < 0:
        raise ValidationError("truncation schedule must have start >= 1, doublings >= 0")
    log_terms: list[float] = []
    top = -math.inf  # running max of log_terms
    prev_bound = math.inf
    prev_checkpoint_term: float | None = None
    log_eps = math.log(eps_tail)
    for k in range(max_doublings + 1):
        n_stop = start << k
        for lo in range(len(log_terms), n_stop + 1, _CHUNK):
            chunk = _term_chunk(family, lo, min(lo + _CHUNK, n_stop + 1))
            top = max(top, max(chunk))
            log_terms += chunk
        # a finite lp + payoff overflowed to +inf exactly when the max did
        require_log_terms((top,))
        bound = float(family.tail_bound(n_stop))
        if math.isnan(bound) or bound < 0:
            raise InvalidBounds(f"tail bound at N={n_stop} must be >= 0, got {bound!r}")
        if bound > prev_bound:
            raise InvalidBounds(
                f"tail bound increased along the schedule: {prev_bound!r} -> {bound!r} "
                f"at N={n_stop}"
            )
        prev_bound = bound
        last_term = log_terms[n_stop]
        # log_partial <= upper: n_stop + 1 terms of at most e^top, plus one
        # nat for the rounding of exp, fsum, log and the addition
        upper = top + math.log(n_stop + 1) + 1.0
        decidable = (
            upper > explosion_log if bound == math.inf
            else bound == 0.0 or math.log(bound) < log_eps + upper
        )
        if decidable or k == max_doublings:
            log_partial = shifted_log_sum(log_terms, top) if top > -math.inf else -math.inf
            status = CertificateStatus.INCONCLUSIVE
            if log_partial > -math.inf and (
                bound == 0.0 or math.log(bound) < log_eps + log_partial
            ):
                status = CertificateStatus.FINITE
            # a finite tail bound proves Z finite, so only an unbounded tail may diverge
            elif (
                bound == math.inf
                and log_partial > explosion_log
                and last_term > -math.inf
                and prev_checkpoint_term is not None
                and last_term >= prev_checkpoint_term - 1e-12
            ):
                status = CertificateStatus.DIVERGED
            if status is not CertificateStatus.INCONCLUSIVE or k == max_doublings:
                return _TruncationRun(status, n_stop, log_partial, bound, log_terms)
        prev_checkpoint_term = last_term
    raise AssertionError("unreachable: the final checkpoint always returns")


def _certificate(run: _TruncationRun) -> TruncationCertificate:
    return TruncationCertificate(
        N=run.N,
        partial=_safe_exp(run.log_partial),
        tail_bound=run.tail_bound,
        status=run.status,
        log_partial=run.log_partial,
    )


def log_normalizer_truncated(
    family: CountableFamily,
    eps_tail: float,
    start: int = DEFAULT_START,
    max_doublings: int = DEFAULT_MAX_DOUBLINGS,
    explosion_log: float = DEFAULT_EXPLOSION_LOG,
) -> tuple[float, TruncationCertificate]:
    """Estimate log Z with a three-valued certificate.

    When the certificate is 'finite' the estimate carries relative tail
    error below eps_tail. 'diverged' estimates are +inf; 'inconclusive'
    returns the best partial estimate reached within the budget.
    """
    run = _truncate(family, eps_tail, start, max_doublings, explosion_log)
    if run.status is CertificateStatus.DIVERGED:
        return math.inf, _certificate(run)
    return run.log_partial, _certificate(run)


def tilt_truncated(
    family: CountableFamily,
    eps_tail: float,
    start: int = DEFAULT_START,
    max_doublings: int = DEFAULT_MAX_DOUBLINGS,
    explosion_log: float = DEFAULT_EXPLOSION_LOG,
) -> TruncatedTilt:
    """Truncated tilt optimizer p_n exp(payoff(n)) / Z for n <= N.

    Requires a finite certificate; the reported tail fraction is below
    eps_tail by construction.
    """
    run = _truncate(family, eps_tail, start, max_doublings, explosion_log)
    if run.status is not CertificateStatus.FINITE:
        raise NotFinite(f"no finite certificate within budget (status: {run.status.value})")
    # log_partial >= every log-term, so each exponent is <= 0 and math.exp
    # neither overflows nor differs from _safe_exp (exp(-inf) is 0.0)
    probs = tuple(map(math.exp, map(sub, run.log_terms, repeat(run.log_partial))))
    if run.tail_bound == 0.0:
        tail_mass = 0.0
    else:
        tail_mass = _safe_exp(math.log(run.tail_bound) - run.log_partial)
    return TruncatedTilt(probs=probs, tail_mass=tail_mass, certificate=_certificate(run))
