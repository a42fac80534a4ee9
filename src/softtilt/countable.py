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

The built-in geometric families keep their exact parameters q, slope and
intercept, and the exact sign of slope + ln q decides whether the series
may diverge: below zero it cannot, and above zero no finite tail bound is
taken as proof of convergence. When the series converges but no partial
sum, however large, could reach a certificate at any checkpoint (the tail
bound reads +inf throughout), the run is reported 'inconclusive' at its
last checkpoint without building a term, and its log partial sum is the
exact sum of the family's series, evaluated in `decimal` and rounded once.
Where such a family's float tail bound certifies 'finite', the bound is
evaluated again from the exact parameters in `decimal`, rounded upward,
and it is that bound which must certify and is reported.
Every other run is scanned. The built-in families build their terms a chunk at a time
with C-level arithmetic over whole lists, bit for bit what their per-n
callables compute; other families are called once per n. A checkpoint's
partial sum is taken only where an upper bound on it cannot rule out both
a certificate and divergence, and always at the last checkpoint. A scan that
would build more than MAX_SCAN_TERMS terms to reach its next checkpoint is a
ValidationError, raised before any of them is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from enum import Enum
from itertools import repeat
from operator import add, mul, sub
from typing import Callable

from .dist import _finite, _real
from .errors import InvalidBounds, NotFinite, ValidationError
from .tilt import SoftUpdateProblem, _positive, first_invalid, require_log_terms, shifted_log_sum

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
# a scan keeps every log-term up to its checkpoint, so it refuses to build past
# this many (about 1 GiB of floats); the default schedule builds (16 << 17) + 1
MAX_SCAN_TERMS = 1 << 25


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
    to NaN or +inf; before a scan, tail_bound may be called once more at
    each checkpoint up to the first one that could decide the run.
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
        direct tilted-tail bound instead. A finite bound above the double
        range reads +inf, but is marked as finite, which rules out divergence.
        """

        def tail(n: int) -> float:
            t = prior_tail(n)
            if t < 0:
                raise InvalidBounds(f"prior tail bound at N={n} is negative: {t!r}")
            if t == 0:
                return 0.0
            s = payoff_sup(n)
            try:
                bound = t * math.exp(s)
            except OverflowError:  # exp(s) alone overflows; the product may not
                bound = _safe_exp(math.log(t) + s)
            if bound == math.inf and t < math.inf and s < math.inf:
                return _Overflowed(math.inf)
            return bound

        return cls(log_prior_mass=log_prior_mass, payoff=payoff, tail_bound=tail, describe=describe)

    @classmethod
    def geometric_linear(cls, q: float, slope: float, intercept: float = 0.0) -> "CountableFamily":
        """Prior (1-q) q^n with payoff slope*n + intercept.

        The tilted series is geometric with ratio q e^slope, so the tail
        bound is exact: (1-q) e^intercept (q e^slope)^(N+1) / (1 - q e^slope)
        when the ratio is below one, +inf otherwise.
        """
        q = _probability(q)
        slope = _finite(slope, "payoff slope and intercept must be finite")
        intercept = _finite(intercept, "payoff slope and intercept must be finite")
        prior = _GeometricPrior(q)
        log_head, log_q = prior.offset, prior.step
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
            log_prior_mass=prior,
            payoff=_Affine(intercept, slope),
            tail_bound=tail,
            describe=f"geometric(q={q!r}) with linear payoff",
        )

    @classmethod
    def geometric_constant(cls, q: float, value: float) -> "CountableFamily":
        """Prior (1-q) q^n with a constant payoff."""
        q = _probability(q)
        value = _finite(value, "payoff value must be finite")
        prior = _GeometricPrior(q)
        log_q = prior.step
        return cls(
            log_prior_mass=prior,
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


def _probability(q) -> float:
    """A geometric parameter as a float: a real number (`dist._real`) in (0, 1)."""
    x = _real(q)
    if x is None or not 0.0 < x < 1.0:
        raise ValidationError(f"geometric parameter must lie in (0, 1), got {q!r}")
    return x


class _GeometricPrior(_Affine):
    """log((1-q) q^n) as log1p(-q) + n log q, keeping the exact q."""

    __slots__ = ("q",)

    def __init__(self, q: float) -> None:
        super().__init__(math.log1p(-q), math.log(q))
        self.q = q


class _Overflowed(float):
    """A finite tail bound above the double range: it reads +inf, which
    certifies nothing, but still proves the series finite."""


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


def _checked_bound(family: CountableFamily, n: int, prev: float) -> tuple[float, bool]:
    """tail_bound(n) as a float, checked against the contract, and whether it
    proves the series finite: it is finite, or finite above the double range."""
    raw = family.tail_bound(n)
    bound = float(raw)
    if math.isnan(bound) or bound < 0:
        raise InvalidBounds(f"tail bound at N={n} must be >= 0, got {bound!r}")
    if bound > prev:
        raise InvalidBounds(
            f"tail bound increased along the schedule: {prev!r} -> {bound!r} at N={n}"
        )
    return bound, bound < math.inf or isinstance(raw, _Overflowed)


def _upper(top: float, n: int) -> float:
    """An upper bound on the log partial sum of n + 1 log-terms of at most top:
    one nat above top + log(n + 1) covers the rounding of exp, fsum, log and
    the additions."""
    return top + math.log(n + 1) + 1.0


def _reached(
    bound: float, log_partial: float, log_eps: float, explosion_log: float, unbounded: bool
) -> CertificateStatus:
    """The status a checkpoint with this tail bound and log partial sum reaches,
    before 'diverged' also asks for nondecreasing checkpoint terms; `unbounded`
    says that nothing proves the series finite.

    The only place the certificate rule is stated. Each outcome, once reached,
    stays reached as log_partial grows, so an upper bound on the partial sum
    shows whether a checkpoint can decide anything at all."""
    if log_partial > -math.inf and (bound == 0.0 or math.log(bound) < log_eps + log_partial):
        return CertificateStatus.FINITE
    if unbounded and log_partial > explosion_log:
        return CertificateStatus.DIVERGED
    return CertificateStatus.INCONCLUSIVE


def _log_ratio_sign(q: float, slope: float) -> tuple[int, int]:
    """The exact sign of slope + ln q, and a precision in digits that resolves it.

    Decimal's ln is correctly rounded, so ln q lies strictly between the
    neighbours of its rounded value. ln q is transcendental for a rational
    q != 1 (Lindemann), so slope + ln q != 0 and doubling the precision ends."""
    minus_slope = Decimal(-slope)
    prec = 40
    while True:
        ctx = Context(prec=prec)
        ln_q = ctx.ln(Decimal(q))
        if minus_slope > ctx.next_plus(ln_q):
            return -1, prec
        if minus_slope < ctx.next_minus(ln_q):
            return 1, prec
        prec *= 2


def _exact_log_partial(q: float, slope: float, intercept: float, n: int, prec: int) -> float:
    """log sum_{m<=n} (1-q) q^m e^(slope m + intercept) for the exact parameters.

    With L = slope + ln q and K = |L| this is ln(1-q) + intercept + max(0, nL)
    + ln((1 - e^-((n+1)K)) / (1 - e^-K)). prec resolves the sign of L, so
    50 more digits leave L about 50 significant digits. The sum is taken at
    that precision and at twice as many digits, doubling again until two
    successive values round to the same double, which is returned.
    """
    q_, slope_, intercept_ = Decimal(q), Decimal(slope), Decimal(intercept)
    # exact: a double in (0, 1) has at most 1074 decimal places
    one_minus_q = Context(prec=1100).subtract(1, q_)
    prec += 50
    value = None
    while True:
        with localcontext(Context(prec=prec)):
            log_ratio = slope_ + q_.ln()
            k = abs(log_ratio)
            log_sum = ((1 - (-(n + 1) * k).exp()) / (1 - (-k).exp())).ln()
            exact = one_minus_q.ln() + intercept_ + max(n * log_ratio, 0) + log_sum
        if float(exact) == value:
            return value
        value, prec = float(exact), 2 * prec


def _exact_tail(
    q: float, slope: float, intercept: float, n: int, eps_tail: float, prec: int
) -> tuple[float, bool]:
    """The tail bound at n of a built-in family whose exact L = slope + ln q is
    negative, rounded upward to a double from the exact parameters, and whether
    it certifies n: whether it lies below eps_tail times the exact partial sum.

    log T(n) = ln(1-q) + intercept + (n+1)L - ln(1 - e^L). Decimal's ln and exp
    are correctly rounded, so a neighbour of each result bounds it on the side
    wanted, and the other operations round toward that side. prec resolves
    the sign of L, so L rounded up at 50 more digits is still negative. With
    x = e^((n+1)L) the partial sum is T(n) (1 - x) / x, so log T(n) lies below
    log eps_tail + log S(n) exactly when x (1 + eps_tail) < eps_tail.
    """
    up = Context(prec=prec + 50, rounding=ROUND_CEILING)
    down = Context(prec=prec + 50, rounding=ROUND_FLOOR)
    q_, eps = Decimal(q), Decimal(eps_tail)
    log_ratio = up.add(Decimal(slope), up.next_plus(up.ln(q_)))
    log_x = up.multiply(n + 1, log_ratio)
    x = up.next_plus(up.exp(log_x))
    certified = up.multiply(x, up.add(1, eps)) < eps
    # 1 - e^L from below, so that -ln(1 - e^L) is bounded from above
    gap = down.subtract(1, up.next_plus(up.exp(log_ratio)))
    # exact: a double in (0, 1) has at most 1074 decimal places
    log_head = up.next_plus(up.ln(Context(prec=1100).subtract(1, q_)))
    log_tail = up.add(up.add(log_head, Decimal(intercept)), log_x)
    log_tail = up.subtract(log_tail, down.next_minus(down.ln(gap)))
    tail = up.next_plus(up.exp(log_tail))
    bound = float(tail)
    if Decimal(bound) < tail:
        bound = math.nextafter(bound, math.inf)
    return bound, certified


def _plan(
    family: CountableFamily,
    log_eps: float,
    start: int,
    max_doublings: int,
    explosion_log: float,
    prec: int,
) -> _TruncationRun | None:
    """The scan's run for a built-in geometric family whose exact ratio
    q e^slope is below one, when no partial sum could decide any checkpoint;
    None when the family must be scanned.

    By _reached's monotonicity, a checkpoint that stays undecided at an
    infinite log partial sum stays undecided at the scan's: the scan would
    sum only the last checkpoint and report it 'inconclusive'. With
    slope < -ln q < 745, every log-term up to any N a scan can reach is
    finite or -inf, so the scan raises no error either.
    """
    bound = math.inf
    for k in range(max_doublings + 1):
        bound, _ = _checked_bound(family, start << k, bound)
        # the series converges, so it cannot diverge
        reached = _reached(bound, math.inf, log_eps, explosion_log, False)
        if reached is not CertificateStatus.INCONCLUSIVE:
            return None
    n_last = start << max_doublings
    prior, payoff = family.log_prior_mass, family.payoff
    log_partial = _exact_log_partial(prior.q, payoff.step, payoff.offset, n_last, prec)
    return _TruncationRun(CertificateStatus.INCONCLUSIVE, n_last, log_partial, bound, [])


def _truncate(
    family: CountableFamily,
    eps_tail: float,
    start: int,
    max_doublings: int,
    explosion_log: float,
) -> _TruncationRun:
    if not _positive(eps_tail):
        raise ValidationError(f"eps_tail must be finite and > 0, got {eps_tail!r}")
    eps_tail = float(eps_tail)  # a Fraction would not convert to Decimal
    if start < 1 or max_doublings < 0:
        raise ValidationError("truncation schedule must have start >= 1, doublings >= 0")
    log_eps = math.log(eps_tail)
    sign = 0  # the exact sign of slope + ln q, 0 where the family hides it
    prior, payoff = family.log_prior_mass, family.payoff
    if isinstance(prior, _GeometricPrior) and isinstance(payoff, _Affine):
        sign, prec = _log_ratio_sign(prior.q, payoff.step)
        if sign < 0:
            run = _plan(family, log_eps, start, max_doublings, explosion_log, prec)
            if run is not None:
                return run
    log_terms: list[float] = []
    top = -math.inf  # running max of log_terms
    raw_bound = math.inf
    prev_checkpoint_term: float | None = None
    for k in range(max_doublings + 1):
        n_stop = start << k
        if n_stop >= MAX_SCAN_TERMS:
            raise ValidationError(
                f"truncation point {n_stop} would build {n_stop + 1} terms, "
                f"more than the scan's limit of {MAX_SCAN_TERMS}"
            )
        for lo in range(len(log_terms), n_stop + 1, _CHUNK):
            chunk = _term_chunk(family, lo, min(lo + _CHUNK, n_stop + 1))
            top = max(top, max(chunk))
            log_terms += chunk
        # a finite lp + payoff overflowed to +inf exactly when the max did
        require_log_terms((top,))
        raw_bound, bounded = _checked_bound(family, n_stop, raw_bound)
        # a ratio q e^slope above one diverges, so a finite bound only shows
        # that its float rounded below one; one below one cannot diverge, and
        # neither can a series a bound proves finite
        bound = math.inf if sign > 0 else raw_bound
        unbounded = sign > 0 or (sign == 0 and not bounded)
        last = k == max_doublings
        last_term = log_terms[n_stop]
        reachable = _reached(bound, _upper(top, n_stop), log_eps, explosion_log, unbounded)
        if last or reachable is not CertificateStatus.INCONCLUSIVE:
            log_partial = shifted_log_sum(log_terms, top) if top > -math.inf else -math.inf
            status = _reached(bound, log_partial, log_eps, explosion_log, unbounded)
            if status is CertificateStatus.FINITE and sign < 0:
                # the float bound rounds q e^slope, which can put it below the true tail
                bound, certified = _exact_tail(
                    prior.q, payoff.step, payoff.offset, n_stop, eps_tail, prec
                )
                if not certified:
                    status = CertificateStatus.INCONCLUSIVE
            if status is CertificateStatus.DIVERGED and not (
                last_term > -math.inf
                and prev_checkpoint_term is not None
                and last_term >= prev_checkpoint_term - 1e-12
            ):
                status = CertificateStatus.INCONCLUSIVE
            if last or status is not CertificateStatus.INCONCLUSIVE:
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
