"""Countable-support log-normalizers and their finiteness certificates."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import re
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from softtilt import (
    CertificateStatus,
    CountableFamily,
    InvalidBounds,
    NotFinite,
    SoftTiltError,
    ValidationError,
    countable,
    log_normalizer_truncated,
    logsumexp,
    solve_tilt,
    tilt_truncated,
)
from softtilt.cli import main
from softtilt.tilt import shifted_log_sum
from helpers import random_problem, ref_geometric_tail, ref_logsumexp, ref_truncate

EPS = 1e-12


def geometric_payoff_family(growth: float) -> CountableFamily:
    # prior (1/2)^(n+1), payoff n*log(growth): tilted ratio is growth/2
    return CountableFamily.geometric_linear(0.5, math.log(growth))


class TestGeometricLinear:
    def test_subcritical_growth_is_certified_finite(self):
        logz, cert = log_normalizer_truncated(geometric_payoff_family(1.5), EPS)
        assert cert.status is CertificateStatus.FINITE
        # sum (1/2)(3/4)^n = 2
        assert logz == pytest.approx(math.log(2.0), abs=1e-9)
        assert cert.tail_bound < EPS * cert.partial

    def test_supercritical_growth_diverges(self):
        logz, cert = log_normalizer_truncated(geometric_payoff_family(3.0), EPS)
        assert cert.status is CertificateStatus.DIVERGED
        assert logz == math.inf

    def test_critical_growth_is_inconclusive(self):
        # ratio exactly 1: terms never decay and partial sums grow too
        # slowly to trip the explosion guard
        logz, cert = log_normalizer_truncated(
            geometric_payoff_family(2.0), EPS, max_doublings=4
        )
        assert cert.status is CertificateStatus.INCONCLUSIVE
        assert math.isfinite(logz)

    @pytest.mark.parametrize("slope, intercept", [(800.0, 0.0), (0.1, 800.0), (-800.0, 0.0)])
    def test_parameters_beyond_exp_range(self, slope, intercept):
        # e^800 overflows and e^-800 underflows a double; neither may raise
        family = CountableFamily.geometric_linear(0.5, slope, intercept)
        logz, cert = log_normalizer_truncated(family, EPS)
        if slope > 700:
            assert cert.status is CertificateStatus.DIVERGED
        else:  # ratio 0.5 e^slope < 1: log Z = log(1 - q) + intercept - log(1 - ratio)
            assert cert.status is CertificateStatus.FINITE
            want = math.log(0.5) + intercept - math.log1p(-0.5 * math.exp(slope))
            assert logz == pytest.approx(want, rel=1e-12)

    def test_tilted_probabilities(self):
        tilt = tilt_truncated(geometric_payoff_family(1.5), EPS)
        assert tilt.certificate.status is CertificateStatus.FINITE
        assert tilt.probs[0] == pytest.approx(0.25, abs=1e-9)
        for n in range(0, 40):
            assert tilt.probs[n + 1] / tilt.probs[n] == pytest.approx(0.75, abs=1e-9)
        assert math.fsum(tilt.probs) == pytest.approx(1.0, abs=1e-9)
        assert tilt.tail_mass < 2 * EPS

    def test_bad_parameters_rejected(self):
        for q in (0.0, 1.0, -0.3, 1.5, math.nan):
            with pytest.raises(ValidationError):
                CountableFamily.geometric_linear(q, 0.1)
        with pytest.raises(ValidationError):
            CountableFamily.geometric_linear(0.5, math.inf)
        with pytest.raises(ValidationError):
            CountableFamily.geometric_linear(0.5, 0.1, intercept=math.nan)


class TestGeometricConstant:
    def test_log_normalizer_equals_payoff(self):
        logz, cert = log_normalizer_truncated(CountableFamily.geometric_constant(0.5, 2.0), EPS)
        assert cert.status is CertificateStatus.FINITE
        assert logz == pytest.approx(2.0, abs=1e-12)

    def test_tilt_reproduces_prior(self):
        tilt = tilt_truncated(CountableFamily.geometric_constant(0.5, -1.0), EPS)
        for n in range(0, 20):
            assert tilt.probs[n] == pytest.approx(0.5 ** (n + 1), abs=1e-12)

    def test_large_payoff_does_not_trip_explosion_guard(self):
        # log_partial exceeds the explosion threshold immediately, but the
        # terms are strictly decreasing, so the run must certify finite
        logz, cert = log_normalizer_truncated(CountableFamily.geometric_constant(0.5, 600.0), EPS)
        assert cert.status is CertificateStatus.FINITE
        assert cert.log_partial > 500.0
        assert logz == pytest.approx(600.0, abs=1e-12)

    @pytest.mark.parametrize("family", [
        CountableFamily.geometric_constant(0.5, -800.0),
        CountableFamily.geometric_linear(0.5, 0.1, -800.0),
    ])
    def test_tail_bound_below_double_range_is_not_zero(self, family):
        # every term is below e^-800, so the true tail bound underflows a
        # double; a bound of exactly 0 would certify a tail of about 1e-5 of Z
        assert family.tail_bound(16) > 0.0
        _, cert = log_normalizer_truncated(family, EPS, max_doublings=3)
        assert cert.status is CertificateStatus.INCONCLUSIVE

    def test_value_must_be_finite(self):
        with pytest.raises(ValidationError):
            CountableFamily.geometric_constant(0.5, math.inf)


class TestFromFinite:
    def test_matches_direct_solve(self, rng):
        for _ in range(50):
            problem = random_problem(rng)
            solution = solve_tilt(problem)
            family = CountableFamily.from_finite(problem)
            logz, cert = log_normalizer_truncated(family, EPS)
            assert cert.status is CertificateStatus.FINITE
            assert abs(logz - solution.log_normalizer) <= 1e-12

    def test_tilt_matches_direct_optimizer(self, rng):
        for _ in range(20):
            problem = random_problem(rng)
            solution = solve_tilt(problem)
            tilt = tilt_truncated(CountableFamily.from_finite(problem), EPS)
            k = len(problem.prior.probs)
            for i in range(k):
                assert abs(tilt.probs[i] - solution.optimizer.probs[i]) <= 1e-12
            assert all(p == 0.0 for p in tilt.probs[k:])
            assert tilt.tail_mass == 0.0


class TestSplitBounds:
    def test_consistent_with_direct_family(self):
        q, value = 0.5, 2.0
        direct = CountableFamily.geometric_constant(q, value)
        split = CountableFamily.from_split_bounds(
            log_prior_mass=lambda n: math.log1p(-q) + n * math.log(q),
            prior_tail=lambda n: q ** (n + 1),
            payoff=lambda n: value,
            payoff_sup=lambda n: value,
        )
        logz_d, cert_d = log_normalizer_truncated(direct, EPS)
        logz_s, cert_s = log_normalizer_truncated(split, EPS)
        assert cert_s.status is CertificateStatus.FINITE
        assert abs(logz_s - logz_d) <= 1e-12
        assert cert_s.N == cert_d.N

    def test_finite_tail_bound_is_never_diverged(self):
        # payoff 700 min(n, 40) / 40 under geometric(1/2) pushes log_partial past
        # the explosion threshold at N=32 with nondecreasing checkpoint terms,
        # but the family's own bound there is finite (about 1.2e294), so Z < inf
        family = CountableFamily.from_split_bounds(
            log_prior_mass=lambda n: (n + 1) * math.log(0.5),
            prior_tail=lambda n: 0.5 ** (n + 1),
            payoff=lambda n: 700.0 * min(n, 40) / 40,
            payoff_sup=lambda n: 700.0,
        )
        assert math.isfinite(family.tail_bound(32))
        logz, cert = log_normalizer_truncated(family, EPS)
        assert cert.status is CertificateStatus.FINITE
        # exact: the first 40 terms, then 2^-40 e^700 for the geometric tail
        terms = [700.0 * n / 40 - (n + 1) * math.log(2.0) for n in range(40)]
        assert logz == pytest.approx(logsumexp(terms + [700.0 - 40 * math.log(2.0)]), abs=1e-9)

    def test_payoff_sup_beyond_exp_range(self):
        # exp(800) overflows a double; the bound must not raise OverflowError.
        # Up to N=128 the bound t e^800 is finite but above the double range:
        # it reads +inf, yet still proves Z finite, so the run may not diverge
        family = CountableFamily.from_split_bounds(
            log_prior_mass=lambda n: (n + 1) * math.log(0.5),
            prior_tail=lambda n: 0.5 ** (n + 1),
            payoff=lambda n: 800.0 * min(n, 40) / 40,
            payoff_sup=lambda n: 800.0,
        )
        assert family.tail_bound(2000) == pytest.approx(math.exp(800.0 - 2001 * math.log(2.0)))
        assert family.tail_bound(32) == math.inf
        logz, cert = log_normalizer_truncated(family, EPS)
        assert cert.status is CertificateStatus.FINITE
        assert cert.tail_bound < math.inf
        # exact: the first 40 terms, then 2^-40 e^800 for the geometric tail
        terms = [800.0 * n / 40 - (n + 1) * math.log(2.0) for n in range(40)]
        assert logz == pytest.approx(logsumexp(terms + [800.0 - 40 * math.log(2.0)]), abs=1e-9)

    def test_negative_prior_tail_rejected(self):
        family = CountableFamily.from_split_bounds(
            log_prior_mass=lambda n: math.log1p(-0.5) + n * math.log(0.5),
            prior_tail=lambda n: -1.0,
            payoff=lambda n: 0.0,
            payoff_sup=lambda n: 0.0,
        )
        with pytest.raises(InvalidBounds):
            log_normalizer_truncated(family, EPS)

    def test_zero_prior_tail_short_circuits(self):
        # exp(payoff_sup) never evaluated when the prior tail is exactly 0
        family = CountableFamily.from_split_bounds(
            log_prior_mass=lambda n: 0.0 if n == 0 else -math.inf,
            prior_tail=lambda n: 0.0,
            payoff=lambda n: 1.0,
            payoff_sup=lambda n: math.inf,
        )
        logz, cert = log_normalizer_truncated(family, EPS)
        assert cert.status is CertificateStatus.FINITE
        assert logz == pytest.approx(1.0, abs=1e-12)


class TestContracts:
    def geometric_terms(self):
        return lambda n: (n + 1) * math.log(0.5)

    def test_increasing_tail_bound_rejected(self):
        family = CountableFamily(
            log_prior_mass=self.geometric_terms(),
            payoff=lambda n: 0.0,
            tail_bound=lambda n: 1.0 + n,
        )
        with pytest.raises(InvalidBounds):
            log_normalizer_truncated(family, EPS)

    def test_nan_tail_bound_rejected(self):
        family = CountableFamily(
            log_prior_mass=self.geometric_terms(),
            payoff=lambda n: 0.0,
            tail_bound=lambda n: math.nan,
        )
        with pytest.raises(InvalidBounds):
            log_normalizer_truncated(family, EPS)

    def test_nonreal_payoff_rejected(self):
        for bad in (math.nan, math.inf):
            family = CountableFamily(
                log_prior_mass=self.geometric_terms(),
                payoff=lambda n: bad,
                tail_bound=lambda n: 0.0,
            )
            with pytest.raises(ValidationError):
                log_normalizer_truncated(family, EPS)

    def test_bad_log_prior_mass_rejected(self):
        for bad in (math.nan, math.inf):
            family = CountableFamily(
                log_prior_mass=lambda n: bad,
                payoff=lambda n: 0.0,
                tail_bound=lambda n: 0.0,
            )
            with pytest.raises(ValidationError):
                log_normalizer_truncated(family, EPS)

    def test_bad_eps_tail_rejected(self):
        family = CountableFamily.geometric_constant(0.5, 0.0)
        for eps in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValidationError):
                log_normalizer_truncated(family, eps)

    def test_bad_schedule_rejected(self):
        family = CountableFamily.geometric_constant(0.5, 0.0)
        with pytest.raises(ValidationError):
            log_normalizer_truncated(family, EPS, start=0)
        with pytest.raises(ValidationError):
            log_normalizer_truncated(family, EPS, max_doublings=-1)

    @pytest.mark.parametrize("start", [1 << 25, 1 << 62])
    def test_scan_refuses_checkpoint_past_term_limit(self, start):
        # past the limit of 1 << 25 terms, refused before a term is built, so
        # a fault here fails fast, not by running out of memory
        family = CountableFamily.geometric_linear(0.5, 0.1)
        with mock.patch.object(countable, "_term_chunk", side_effect=AssertionError("built")):
            with pytest.raises(ValidationError, match=f"truncation point {start} would build"):
                log_normalizer_truncated(family, EPS, start=start, max_doublings=0)

    def test_term_limit_leaves_runs_that_stop_before_it(self):
        # a scan that certifies early never reaches its far checkpoints
        _, cert = log_normalizer_truncated(geometric_payoff_family(1.0), EPS, max_doublings=60)
        assert (cert.status, cert.N) == (CertificateStatus.FINITE, 64)
        # and a planned run builds no term, however far its last checkpoint
        family = CountableFamily.geometric_linear(0.5, math.log(2.0))
        with mock.patch.object(countable, "_term_chunk", side_effect=AssertionError("built")):
            _, cert = log_normalizer_truncated(family, EPS, start=1 << 25)
        assert (cert.status, cert.N) == (CertificateStatus.INCONCLUSIVE, 1 << 42)

    def test_tilt_requires_finite_certificate(self):
        with pytest.raises(NotFinite):
            tilt_truncated(geometric_payoff_family(3.0), EPS)
        with pytest.raises(NotFinite):
            tilt_truncated(geometric_payoff_family(2.0), EPS, max_doublings=3)


# ------------------------------------------- chunked kernel against the scan

CHUNK = countable._CHUNK


def _outcome(fn):
    """("ok", repr of the result) or (error type, message) of fn()."""
    try:
        return "ok", repr(fn())
    except SoftTiltError as exc:
        return type(exc), str(exc)


def _position(rng: random.Random, terms: int) -> int:
    """An index below `terms`, often next to a chunk boundary."""
    edges = range(CHUNK, terms, CHUNK)
    if edges and rng.random() < 0.5:
        return min(terms - 1, max(0, rng.choice(edges) + rng.randint(-2, 1)))
    return rng.randrange(terms)


def _near_exp_limit(rng: random.Random) -> float:
    """A value whose exp lies just inside or beyond the double range, either sign."""
    return rng.choice((-1.0, 1.0)) * rng.uniform(709.0, 800.0)


def _random_family(rng: random.Random, terms: int) -> CountableFamily:
    """A built-in family, or a custom one with zero-mass n, -inf payoffs and
    NaN, +inf or overflowing values injected somewhere in the first `terms` n.

    Built-in draws reach q near 0 and 1, payoffs near the exp range limit and
    slopes from 1e306 up, whose payoff overflows to +inf within a few n."""
    kind = rng.choice(("linear", "constant", "finite", "custom", "custom"))
    q = rng.choice((
        rng.uniform(0.05, 0.95),
        10.0 ** -rng.uniform(3.0, 300.0),
        1.0 - 10.0 ** -rng.uniform(3.0, 15.0),
    ))
    if kind == "linear":
        slope = rng.choice(
            (rng.uniform(-3.0, 1.5), _near_exp_limit(rng), rng.uniform(1e306, 1.7e308))
        )
        intercept = rng.choice((rng.uniform(-2.0, 2.0), _near_exp_limit(rng)))
        return CountableFamily.geometric_linear(q, slope, intercept)
    if kind == "constant":
        return CountableFamily.geometric_constant(
            q, rng.choice((rng.uniform(-5.0, 700.0), _near_exp_limit(rng)))
        )
    if kind == "finite":
        return CountableFamily.from_finite(random_problem(rng, max_k=12))
    log_q, head, slope = math.log(q), math.log1p(-q), rng.uniform(-1.0, 1.0)
    zero_mass = {_position(rng, terms) for _ in range(rng.randint(0, 3))}
    sinks = {_position(rng, terms) for _ in range(rng.randint(0, 3))}
    bad_prior, bad_payoff = (
        {_position(rng, terms): rng.choice((math.nan, math.inf))} if rng.random() < 0.4 else {}
        for _ in range(2)
    )
    # 1e308 + 1e308 overflows to +inf although both values are valid
    huge = {_position(rng, terms)} if rng.random() < 0.3 else set()
    ratio = rng.uniform(0.1, 0.9)
    tail = rng.choice((lambda n: math.inf, lambda n: 0.0, lambda n: 2.0 * ratio ** (n + 1)))

    def log_prior_mass(n):
        if n in bad_prior:
            return bad_prior[n]
        if n in huge:
            return 1e308
        return -math.inf if n in zero_mass else head + n * log_q

    def payoff(n):
        if n in bad_payoff:
            return bad_payoff[n]
        if n in huge:
            return 1e308
        return -math.inf if n in sinks else slope * n

    return CountableFamily(log_prior_mass, payoff, tail)


def _log_ratio_sign(q: float, slope: float) -> int:
    """The sign of slope + ln q, at 200 digits."""
    with localcontext(Context(prec=200)):
        log_ratio = Decimal(slope) + Decimal(q).ln()
    assert log_ratio != 0
    return 1 if log_ratio > 0 else -1


def _decimal_log_partial(q: float, slope: float, intercept: float, n: int) -> float:
    """log of the n + 1 exact terms (1-q) q^m e^(slope m + intercept), each
    exponentiated and summed one by one at 60 digits."""
    with localcontext(Context(prec=60)):
        one_minus_q = 1 - Fraction(q)
        head = (Decimal(one_minus_q.numerator) / one_minus_q.denominator).ln() + Decimal(intercept)
        log_ratio = Decimal(slope) + Decimal(q).ln()
        logs = [head + m * log_ratio for m in range(n + 1)]
        top = max(logs)
        return float(top + sum((x - top).exp() for x in logs).ln())


def _assert_run_matches_scan(family, eps_tail, start, max_doublings):
    """countable._truncate against the reference scan: the same error, or the
    same status, N and tail bound bit for bit. A scanned run also has the
    scan's log-terms and log partial sum bit for bit; a run the plan decides
    builds no term, and its log partial sum lies within one ulp of the exact
    terms summed in decimal.

    The reference scan knows no exact ratio. For a built-in family whose
    slope + ln q is negative it runs with no explosion threshold, which is
    what 'the series converges, so it cannot diverge' means to it, and a
    checkpoint it certifies must hold for the exact tail and partial sum,
    whose tail is then reported, rounded up to the next double; where it
    is positive, it reads a tail bound of +inf, because the series diverges
    and no finite bound is true."""
    prior, payoff = family.log_prior_mass, family.payoff
    sign, exact_tail = 0, None
    if isinstance(prior, countable._GeometricPrior):
        sign = _log_ratio_sign(prior.q, payoff.step)
        if sign < 0:
            def exact_tail(n):
                return ref_geometric_tail(prior.q, payoff.step, payoff.offset, n)
    ref = dataclasses.replace(family, tail_bound=lambda n: math.inf) if sign > 0 else family
    explosion_log = math.inf if sign < 0 else 500.0
    try:
        want = ref_truncate(ref, eps_tail, start, max_doublings, explosion_log, exact_tail)
    except SoftTiltError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            countable._truncate(family, eps_tail, start, max_doublings, 500.0)
        return
    got = countable._truncate(family, eps_tail, start, max_doublings, 500.0)
    assert (got.status, got.N) == (want.status, want.N)
    if isinstance(want.tail_bound, Decimal):
        below = Decimal(math.nextafter(got.tail_bound, 0.0))
        assert below < want.tail_bound <= Decimal(got.tail_bound)
    else:
        assert got.tail_bound.hex() == want.tail_bound.hex()
    if got.log_terms:
        assert _hexes(got.log_terms) == _hexes(want.log_terms)
        assert got.log_partial.hex() == want.log_partial.hex()
    else:
        exact = _decimal_log_partial(prior.q, payoff.step, payoff.offset, got.N)
        assert abs(got.log_partial - exact) <= math.ulp(exact)


def _recorded(family: CountableFamily) -> CountableFamily:
    """The family with its callables checked against the call contract."""
    priors: dict[int, float] = {}
    payoffs: set[int] = set()

    def log_prior_mass(n):
        assert n not in priors, f"log_prior_mass called twice at n={n}"
        priors[n] = family.log_prior_mass(n)
        return priors[n]

    def payoff(n):
        assert n not in payoffs, f"payoff called twice at n={n}"
        assert -math.inf < float(priors[n]) < math.inf, f"payoff called at zero-mass n={n}"
        payoffs.add(n)
        return family.payoff(n)

    return dataclasses.replace(family, log_prior_mass=log_prior_mass, payoff=payoff)


class TestKernelAgainstScan:
    """The chunked kernel against the per-term scan in helpers, bit for bit
    except for the log partial sum of a run the plan decides."""

    @seed(0xC4A1)
    @settings(max_examples=60)
    @given(
        case=st.integers(min_value=0, max_value=2**32 - 1),
        start=st.one_of(st.integers(1, 8), st.integers(CHUNK - 3, CHUNK + 3)),
        doublings=st.integers(0, 6),
    )
    # a finite family whose prior's last Dirichlet weight is zero; the helper
    # once returned -2.2e-16 for it
    @example(case=40894, start=1, doublings=0)
    def test_solvers_match_reference(self, case, start, doublings):
        if start > 8:
            doublings = min(doublings, 1)
        rng = random.Random(case)
        family = _random_family(rng, (start << doublings) + 1)
        kwargs = {"eps_tail": rng.choice((1e-12, 1e-3)), "start": start, "max_doublings": doublings}
        for solver in (log_normalizer_truncated, tilt_truncated):
            with mock.patch.object(countable, "_truncate", ref_truncate):
                want = _outcome(lambda: solver(family, **kwargs))
            # wrapped, every family is called per n and scanned
            assert _outcome(lambda: solver(_recorded(family), **kwargs)) == want
        # unwrapped, the built-in families are planned, then take the chunk path
        _assert_run_matches_scan(family, **kwargs)

    @pytest.mark.parametrize(
        "bad_payoff_at, bad_prior_at, doublings",
        [(3, 7, 0), (7, 3, 0), (CHUNK - 1, CHUNK, 0), (CHUNK, CHUNK, 0), (CHUNK + 2, CHUNK + 5, 1)],
    )
    def test_first_invalid_value_wins(self, bad_payoff_at, bad_prior_at, doublings):
        # a scan meets the payoff at n before the prior mass at n + 1, so the
        # earlier bad value raises, whether or not both lie in one chunk
        family = CountableFamily(
            log_prior_mass=lambda n: math.nan if n == bad_prior_at else -0.5 * (n + 1),
            payoff=lambda n: math.inf if n == bad_payoff_at else 0.0,
            tail_bound=lambda n: math.inf,
        )
        got = _outcome(
            lambda: log_normalizer_truncated(
                _recorded(family), EPS, start=CHUNK, max_doublings=doublings
            )
        )
        assert got[0] is ValidationError
        assert got == _outcome(lambda: ref_truncate(family, EPS, CHUNK, doublings, 500.0))

    def test_overflowing_payoff_raises_the_scan_error(self):
        # 1e308 * n overflows from n = 2 on: the chunk path falls back and
        # raises where the scan does
        family = CountableFamily.geometric_linear(0.5, 1e308)
        got = _outcome(lambda: log_normalizer_truncated(family, EPS, start=1, max_doublings=3))
        assert got == (ValidationError, "payoff at n=2 must be in [-inf, inf), got inf")
        assert got == _outcome(lambda: ref_truncate(family, EPS, 1, 3, 500.0))

    @seed(0x15E)
    @settings(max_examples=60)
    @given(
        st.lists(
            st.one_of(
                st.floats(), st.floats(-5.0, 5.0), st.sampled_from((-math.inf, math.inf, math.nan))
            ),
            max_size=8,
        ),
        st.sampled_from((list, tuple, iter, lambda xs: (x for x in xs), lambda xs: map(float, xs))),
    )
    @example([], list)
    @example([], iter)
    @example([-math.inf, -math.inf], tuple)
    def test_logsumexp_matches_reference(self, xs, wrap):
        assert _outcome(lambda: logsumexp(wrap(xs))) == _outcome(lambda: ref_logsumexp(xs))


def _hexes(xs) -> list[str]:
    return list(map(float.hex, xs))


class TestAffineChunks:
    """The built-in families' chunk path against their per-n formulas, bit for bit."""

    @pytest.mark.parametrize("lo, hi", [
        (0, 40), (CHUNK - 3, CHUNK + 3), (3 * CHUNK - 1, 3 * CHUNK + 2), (2**40, 2**40 + 40)
    ])
    @pytest.mark.parametrize("q, slope, intercept", [
        (0.5, math.log(2.0), 0.0),
        (0.9, 0.10526051565782635, -0.0),
        (1e-300, 750.0, -750.0),
        (1.0 - 1e-12, -3.0, 2.5),
        (0.37, -1e300, 709.5),
    ])
    def test_chunk_matches_per_n_formulas(self, lo, hi, q, slope, intercept):
        log_q, head = math.log(q), math.log1p(-q)
        linear = CountableFamily.geometric_linear(q, slope, intercept)
        constant = CountableFamily.geometric_constant(q, intercept)
        ns = range(lo, hi)
        cases = ((linear, lambda n: slope * n + intercept), (constant, lambda n: intercept))
        for family, payoff in cases:
            priors = [head + n * log_q for n in ns]
            payoffs = [payoff(n) for n in ns]
            assert _hexes(map(family.log_prior_mass, ns)) == _hexes(priors)
            assert _hexes(map(family.payoff, ns)) == _hexes(payoffs)
            want = [p + s for p, s in zip(priors, payoffs)]
            assert _hexes(countable._term_chunk(family, lo, hi)) == _hexes(want)


def _near_minus_log_q(q: float, ulps: int) -> float:
    """The double `ulps` steps away from -log(q)."""
    x = -math.log(q)
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


class TestPlan:
    """Runs no checkpoint can decide are reported without building a term."""

    @seed(0x9A1)
    @settings(max_examples=80, deadline=None)
    @given(
        case=st.integers(min_value=0, max_value=2**32 - 1),
        start=st.integers(1, 16),
        doublings=st.integers(0, 5),
    )
    def test_plan_matches_reference(self, case, start, doublings):
        rng = random.Random(case)
        intercept = rng.choice((rng.uniform(-5.0, 5.0), rng.uniform(400.0, 800.0), -700.0))
        near_one = 1.0 - 10.0 ** -rng.uniform(2.0, 15.0)
        kind = rng.random()
        if kind < 0.4:
            # the plan's ground: an exact ratio q e^slope just below one that
            # rounds to 1.0 or above, as it mostly does for q near one
            family = CountableFamily.geometric_linear(
                near_one, _near_minus_log_q(near_one, rng.randint(-4, 0)), intercept
            )
        else:
            tiny = 10.0 ** -rng.uniform(2.0, 300.0)
            q = rng.choice((0.5, rng.uniform(0.01, 0.99), tiny, near_one))
            if kind < 0.55:
                family = CountableFamily.geometric_constant(q, intercept)
            else:
                slope = rng.choice((
                    _near_minus_log_q(q, rng.randint(-4, 4)),
                    -math.log(q) + rng.uniform(-1e-3, 1e-3),
                    rng.uniform(-3.0, 3.0),
                ))
                family = CountableFamily.geometric_linear(q, slope, intercept)
        eps_tail = rng.choice((1e-12, 1e-3, 0.5))
        _assert_run_matches_scan(family, eps_tail, start, doublings)

    def test_cli_ratio_one_builds_no_term(self, tmp_path, capsys):
        doc, report = BENCH_FAMILIES["ratio_one"]
        path = tmp_path / "family.json"
        path.write_text(doc, encoding="utf-8")
        with mock.patch.object(countable, "_term_chunk", wraps=countable._term_chunk) as spy:
            assert main(["countable", str(path)]) == 0
        assert spy.call_count == 0
        assert capsys.readouterr().out == report

    def test_convergent_near_one_ratio_is_not_diverged(self, tmp_path, capsys):
        # slope + ln q = -2.3e-17 < 0, so the series converges, although
        # q * exp(slope) rounds to 1.0 and log_partial passes 500 at N=32
        doc = {
            "prior": {"kind": "geometric", "q": 0.5},
            "payoff": {"kind": "linear", "slope": 0.6931471805599453, "intercept": 600},
            "bounds": {"tail": "geometric", "payoff": "linear"},
        }
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with mock.patch.object(countable, "_term_chunk", wraps=countable._term_chunk) as spy:
            assert main(["countable", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert spy.call_count == 0
        assert (report["status"], report["terms"], report["tail_bound"]) == (
            "inconclusive", 2097152, "inf"
        )
        # 600 + ln(1/2) + ln sum_{n <= N} e^(nL) at 60 digits, rounded once
        assert report["log_partial"] == float("613.862944088011633736349402")

    def test_convergent_ratio_never_diverges_in_the_scan(self):
        # the same family, scanned: diverged must not fire there either
        family = CountableFamily.geometric_linear(0.5, 0.6931471805599453, 600.0)
        with mock.patch.object(countable, "_plan", return_value=None):
            logz, cert = log_normalizer_truncated(family, EPS, max_doublings=4)
        assert (cert.status, cert.N) == (CertificateStatus.INCONCLUSIVE, 256)
        assert logz > 500.0
        # with slope one ulp above -ln(1/2), the series diverges, and the scan says so
        family = CountableFamily.geometric_linear(0.5, _near_minus_log_q(0.5, 1), 600.0)
        _, cert = log_normalizer_truncated(family, EPS, max_doublings=4)
        assert (cert.status, cert.N) == (CertificateStatus.DIVERGED, 32)

    def test_divergent_ratio_rounded_below_one_certifies_nothing(self):
        # slope + ln q = 1.5e-18 > 0, so the series diverges, but q * exp(slope)
        # rounds below one and the built-in tail bound is finite, about 1e15
        # times the partial sum: read as proof, it certified 'finite' at N=16384
        family = CountableFamily.geometric_linear(0.7299075632939692, 0.3148373784821012)
        assert family.tail_bound(16384) < math.inf
        _, cert = log_normalizer_truncated(family, 1e12, max_doublings=10)
        assert (cert.status, cert.N, cert.tail_bound) == (
            CertificateStatus.INCONCLUSIVE, 16384, math.inf
        )
        # nor does it rule out divergence: with intercept 600 the flat terms
        # pass 500 at once
        family = CountableFamily.geometric_linear(0.7299075632939692, 0.3148373784821012, 600.0)
        _, cert = log_normalizer_truncated(family, EPS, max_doublings=10)
        assert (cert.status, cert.N, cert.tail_bound) == (CertificateStatus.DIVERGED, 32, math.inf)

    def test_finite_tail_bound_is_never_below_the_exact_tail(self):
        # slope + ln q is a few ulps below zero, so q * exp(slope) is rounded
        # next to one, and the float bound's 1 - ratio carries a large relative
        # error: for the first family it read 1.08e14 at N=16, against an exact
        # tail of 6.10e15, and eps_tail 1e15 certified 'finite' there
        rng = random.Random(0x50F7)
        cases = [(0.9880144317811363, 0.012057974275023906, 1e15)]
        for _ in range(200):
            q = rng.uniform(0.01, 0.99)
            slope = _near_minus_log_q(q, -rng.randint(1, 6))
            cases.append((q, slope, rng.choice((10.0, 1e6, 1e15))))
        finite = 0
        for q, slope, eps_tail in cases:
            _, cert = log_normalizer_truncated(
                CountableFamily.geometric_linear(q, slope), eps_tail, max_doublings=6
            )
            if cert.status is CertificateStatus.FINITE:
                finite += 1
                tail, partial = ref_geometric_tail(q, slope, 0.0, cert.N)
                assert Decimal(cert.tail_bound) >= tail
                assert tail < Decimal(eps_tail) * partial
        # 52 of the 201 runs certify; certified from the float bound alone, 28
        # of those bounds lay below the exact tail and 3 certificates were false
        assert finite >= 50

    @pytest.mark.parametrize(
        "tail, message",
        [
            (lambda n: 1.0 if n < 64 else math.inf, "tail bound increased along the schedule"),
            (lambda n: -1.0 if n == 32 else math.inf, "tail bound at N=32 must be >= 0"),
        ],
    )
    def test_plan_checks_every_bound(self, tail, message):
        # the ratio-one family, which the plan takes, with a faulty tail bound
        family = CountableFamily.geometric_linear(0.5, math.log(2.0))
        family = dataclasses.replace(family, tail_bound=tail)
        with pytest.raises(InvalidBounds, match=message):
            log_normalizer_truncated(family, EPS, max_doublings=3)

    def test_replaced_callables_are_scanned(self):
        family = CountableFamily.geometric_linear(0.5, math.log(2.0))
        payoff = family.payoff
        custom = dataclasses.replace(family, payoff=lambda n: payoff(n))
        with mock.patch.object(countable, "_term_chunk", wraps=countable._term_chunk) as spy:
            _, cert = log_normalizer_truncated(custom, EPS, max_doublings=2)
        assert spy.call_count == 3  # one chunk for each of the 3 checkpoints
        assert cert.status is CertificateStatus.INCONCLUSIVE


class TestLazyCheckpointSums:
    """A checkpoint's partial sum is taken only where it can decide the run."""

    def summed_at(self, family, **kwargs):
        """The checkpoints N whose partial sum was taken, and the solver's result."""
        sums = []

        def spy(xs, shift):
            sums.append(len(xs) - 1)
            return shifted_log_sum(xs, shift)

        with mock.patch.object(countable, "shifted_log_sum", spy):
            result = log_normalizer_truncated(family, **kwargs)
        return sums, result

    def test_unbounded_tail_below_explosion_sums_once(self):
        # a custom ratio-one family, which the plan does not take: tail bound
        # +inf and log_partial about 10 < 500
        family = CountableFamily(
            lambda n: (n + 1) * math.log(0.5), lambda n: n * math.log(2.0), lambda n: math.inf
        )
        sums, (_, cert) = self.summed_at(family, eps_tail=EPS, max_doublings=6)
        assert sums == [16 << 6]
        assert cert.status is CertificateStatus.INCONCLUSIVE

    def test_certifying_checkpoint_is_summed(self):
        family = CountableFamily.geometric_linear(0.9, 0.10526051565782635)
        sums, (logz, cert) = self.summed_at(family, eps_tail=EPS)
        assert sums[-1] == cert.N and len(sums) <= 2
        want = ref_truncate(
            family, EPS, countable.DEFAULT_START, countable.DEFAULT_MAX_DOUBLINGS, 500.0
        )
        assert (cert.status, cert.N, logz) == (want.status, want.N, want.log_partial)

    # every log-term is 0, so the partial sum at N is log(N + 1); the first
    # checkpoint N=16 is summed only if its upper bound log(17) + 1 reaches the
    # threshold, which is log(17) + gap
    @pytest.mark.parametrize("gap, summed", [(0.5, True), (0.9, True), (1.1, False), (1.5, False)])
    def test_explosion_threshold_margin(self, gap, summed):
        family = CountableFamily(lambda n: 0.0, lambda n: 0.0, lambda n: math.inf)
        sums, _ = self.summed_at(
            family, eps_tail=EPS, max_doublings=1, explosion_log=math.log(17) + gap
        )
        assert sums == ([16, 32] if summed else [32])

    @pytest.mark.parametrize("gap, summed", [(0.5, True), (0.9, True), (1.1, False), (1.5, False)])
    def test_tail_bound_margin(self, gap, summed):
        eps = 1e-3
        bound = math.exp(math.log(eps) + math.log(17) + gap)
        family = CountableFamily(lambda n: 0.0, lambda n: 0.0, lambda n: bound)
        sums, (_, cert) = self.summed_at(family, eps_tail=eps, max_doublings=1)
        assert sums == ([16, 32] if summed else [32])
        # the final checkpoint certifies when log(bound) < log(eps) + log(33)
        if gap < math.log(33 / 17):
            assert cert.status is CertificateStatus.FINITE
        else:
            assert cert.status is CertificateStatus.INCONCLUSIVE


# -------------------------------- reports pinned for the benchmark families

BENCH_FAMILIES = {
    "finite_fast": (
        '{"prior": {"kind": "geometric", "q": 0.5}, "payoff": {"kind": "linear", '
        '"slope": 0.4054651081081644}, "bounds": {"tail": "geometric", "payoff": "linear"}}',
        """{
  "eps_tail": 9.9999999999999998e-13,
  "family": "geometric(q=0.5) with linear payoff",
  "log_normalizer": 0.69314718055994529,
  "log_partial": 0.69314718055994529,
  "status": "finite",
  "tail_bound": 1.5273303196353821e-16,
  "terms": 128
}
""",
    ),
    "finite_slow": (
        '{"prior": {"kind": "geometric", "q": 0.9}, "payoff": {"kind": "linear", '
        '"slope": 0.10526051565782635}, "bounds": {"tail": "geometric", "payoff": "linear"}}',
        """{
  "eps_tail": 9.9999999999999998e-13,
  "family": "geometric(q=0.9) with linear payoff",
  "log_normalizer": 6.9078052785661237,
  "log_partial": 6.9078052785661237,
  "status": "finite",
  "tail_bound": 1.6999641089968328e-20,
  "terms": 524288
}
""",
    ),
    "ratio_one": (
        '{"prior": {"kind": "geometric", "q": 0.5}, "payoff": {"kind": "linear", '
        '"slope": 0.6931471805599453}, "bounds": {"tail": "geometric", "payoff": "linear"}}',
        """{
  "eps_tail": 9.9999999999999998e-13,
  "family": "geometric(q=0.5) with linear payoff",
  "log_normalizer": 13.862944088011634,
  "log_partial": 13.862944088011634,
  "status": "inconclusive",
  "tail_bound": "inf",
  "terms": 2097152
}
""",
    ),
    "diverged": (
        '{"prior": {"kind": "geometric", "q": 0.5}, "payoff": {"kind": "linear", '
        '"slope": 1.0986122886681098}, "bounds": {"tail": "geometric", "payoff": "linear"}}',
        """{
  "eps_tail": 9.9999999999999998e-13,
  "family": "geometric(q=0.5) with linear payoff",
  "log_normalizer": "inf",
  "log_partial": 830.79800651362905,
  "status": "diverged",
  "tail_bound": "inf",
  "terms": 2048
}
""",
    ),
    "constant": (
        '{"prior": {"kind": "geometric", "q": 0.99}, "payoff": {"kind": "constant", '
        '"value": 3.0}, "bounds": {"tail": "geometric", "payoff": "constant"}}',
        """{
  "eps_tail": 9.9999999999999998e-13,
  "family": "geometric(q=0.99) with constant payoff",
  "log_normalizer": 3,
  "log_partial": 3,
  "status": "finite",
  "tail_bound": 2.631938347807261e-17,
  "terms": 4096
}
""",
    ),
}


class TestBenchFamilies:
    @pytest.mark.parametrize("label", sorted(BENCH_FAMILIES))
    def test_report_bytes(self, label, tmp_path, capsys):
        doc, report = BENCH_FAMILIES[label]
        path = tmp_path / "family.json"
        path.write_text(doc, encoding="utf-8")
        assert main(["countable", str(path)]) == 0
        assert capsys.readouterr().out == report
        if label == "ratio_one":
            # math.log(2.0) lies 2.3e-17 below ln 2, so for these exact inputs
            # q e^slope = e^(-2.3e-17) < 1 although 0.5 * math.exp(slope)
            # rounds to 1.0: the series converges, to Z ~ 2.2e16, and a
            # 'diverged' certificate would be unsound
            assert json.loads(doc)["payoff"]["slope"] == math.log(2.0)
            assert json.loads(report)["status"] != CertificateStatus.DIVERGED.value
            # no checkpoint can decide the run, so its log partial sum is the
            # exact sum of the 2^21 + 1 terms, 13.862944088011633736... at 60
            # digits, rounded once
            assert json.loads(report)["log_partial"] == float("13.862944088011633736")
