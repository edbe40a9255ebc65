"""Closed-form avalanche-size distributions, their limit law, and tail analysis.

The three finite-population laws (avalanche, abelian, conditional), the
mean identity and, with masses grouped, the heterogeneous tower law share
one integer kernel: with p = u/v, the numerators

    t_b = (b+1)^(b-1) C(n,b) u^b (v-(b+1)u)^(n-b),   b = 0..n,

put the avalanche law over the single denominator v^n, and Abel's identity
says they sum to exactly v^n.  Each law asserts that identity on its
integers before it reduces any term, so every exact pmf still sums to
exactly 1.

The avalanche, abelian and conditional terms are put in lowest terms
without a gcd on the big integers, by this lemma.  A prime q dividing both
t_b and v does not divide u (u/v is in lowest terms); if it divides
v-(b+1)u it divides b+1; and the primes of C(n,b) are at most n.  So
q <= n+1, and

    gcd(t_b, v^n) = prod_q q^min(val_q(t_b), n val_q(v))

over the primes q <= n+1 dividing v, with

    val_q(t_b) = val_q(C(n,b)) + (b-1) val_q(b+1) + (n-b) val_q(v-(b+1)u)

and the binomial's exponent by Legendre's formula: small-integer arithmetic
only.  The abelian law, over s v^(N-1)/v with s = v-(N-1)u, shares only primes
<= N+1 with its terms too (see _lowest_terms).  A cheap gcd against v s then
proves each reduced term is in lowest terms.  The heterogeneous law has no
factored form and reduces with Fraction's gcd.  The large-population limit
law is floating point, computed in log space, with its truncation deficit
reported rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Sequence

from .errors import DomainError

# Consistency slack allowed between a floating Pmf's mass and its declared
# truncation deficit; purely a guard against construction bugs.
_FLOAT_MASS_TOL = 1e-9


def _as_exact(p) -> Fraction:
    if isinstance(p, float):
        raise DomainError("exact models need a rational p, not a float")
    return Fraction(p)


@dataclass(frozen=True)
class AvalancheParams:
    """Population size N and per-coordinate excitation probability p.

    The natural domain is 0 <= p < 1/N; the closed right endpoint p == 1/N
    is additionally accepted because the avalanche and conditional laws
    extend continuously to it (every factor that could go negative appears
    only with exponent zero there).  Operations that divide by 1 - N*p
    enforce the strict inequality themselves.
    """

    N: int
    p: Fraction

    def __post_init__(self) -> None:
        if self.N < 1:
            raise DomainError(f"N must be >= 1, got {self.N}")
        object.__setattr__(self, "p", _as_exact(self.p))
        if self.p < 0 or self.N * self.p > 1:
            raise DomainError(f"p must satisfy 0 <= p <= 1/N, got p={self.p}, N={self.N}")

    def require_subcritical(self) -> None:
        if self.N * self.p >= 1:
            raise DomainError(f"this model needs 0 <= p < 1/N, got p={self.p}, N={self.N}")


@dataclass(frozen=True)
class LimitParams:
    """Limit-law parameters: alpha = N*p held fixed as N grows, plus a support cap."""

    alpha: float
    a_max: int

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= 1:
            raise DomainError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.a_max < 0:
            raise DomainError(f"a_max must be >= 0, got {self.a_max}")


def _over_common_denominator(probs) -> tuple[list[int], int]:
    """Numerators of exact probabilities over the lcm of their denominators.

    Exact laws repeat few distinct denominators, so lcm and scale use those.
    """
    dens = {p.denominator for p in probs}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    return [p.numerator * scale[p.denominator] for p in probs], den


@dataclass(frozen=True)
class Pmf:
    """A finite probability mass function over integer support.

    ``exact`` declares whether probs are Fractions (mass must be exactly 1,
    checked as integer numerators over the lcm of the denominators) or
    floats (mass must be 1 up to the declared truncation ``deficit``).
    """

    support: tuple[int, ...]
    probs: tuple
    exact: bool
    label: str
    deficit: float | None = None

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probs):
            raise DomainError("support and probs must have equal length")
        if any(p < 0 for p in self.probs):
            raise DomainError(f"negative probability in {self.label}")
        if self.exact:
            nums, den = _over_common_denominator(self.probs)
            total = sum(nums)
            if total != den:
                raise DomainError(f"exact pmf {self.label} sums to {Fraction(total, den)}, not 1")
        else:
            total = sum(self.probs)
            declared = self.deficit if self.deficit is not None else 0.0
            # a NaN fails every comparison, so the tolerance alone would pass it
            mismatch = abs((1.0 - float(total)) - declared) > _FLOAT_MASS_TOL
            if not math.isfinite(total + declared) or mismatch:
                raise DomainError(
                    f"floating pmf {self.label} has mass {total} vs deficit {declared}"
                )

    @cached_property
    def index(self) -> dict:
        """Support value -> probability, built on first use.  Built from the
        right so a repeated support value keeps its first probability."""
        return dict(zip(reversed(self.support), reversed(self.probs)))

    def prob(self, a: int):
        """P(a); zero off the support."""
        return self.index.get(a, Fraction(0) if self.exact else 0.0)

    def items(self):
        return zip(self.support, self.probs)


def _abel_term(n: int, b: int, u: int, v: int) -> int:
    """t_b = (b+1)^(b-1) C(n,b) u^b (v-(b+1)u)^(n-b), so that the avalanche
    law at (n, p = u/v) is P(b) = t_b / v^n.

    The weight 1^(-1) at b = 0 is special-cased (int ** -1 is a float), and
    the last factor is only ever negative with exponent 0, where it is 1.
    """
    weight = (b + 1) ** (b - 1) if b else 1
    return comb(n, b) * u**b * weight * (v - (b + 1) * u) ** (n - b)


def _abel_numerators(groups: Sequence[tuple[int, int]], v: int) -> list[int]:
    """t_0..t_n of the avalanche law with m_g of the n = sum(m_g) coordinates
    at mass u_g/v, for each pair (u_g, m_g) in ``groups``:

        t_b = (b+1)^(b-1) [t^b] prod_g (v - (b+1)u_g + t u_g)^(m_g),

    so that P(b) = t_b / v^n; for 0 <= n*u_g <= v they sum to v^n.  One group
    is _abel_term, one product per b; more groups multiply the coefficients
    up to t^b by each coordinate's factor in turn.
    """
    if len(groups) == 1:
        ((u, n),) = groups
        return [_abel_term(n, b, u, v) for b in range(n + 1)]
    nums = []
    for b in range(sum(m for _, m in groups) + 1):
        coeffs = [1] + [0] * b
        for u, m in groups:
            c = v - (b + 1) * u
            for _ in range(m):
                coeffs = [c * x + u * y for x, y in zip(coeffs, [0] + coeffs)]
        nums.append(((b + 1) ** (b - 1) if b else 1) * coeffs[b])
    return nums


def _valuation(x: int, q: int) -> int:
    """Exponent of the prime q in the nonzero integer x."""
    e = 0
    while x % q == 0:
        x //= q
        e += 1
    return e


def _small_prime_factors(x: int, limit: int) -> tuple[dict[int, int], int]:
    """The primes q <= limit dividing x >= 1, with their exponents, and the
    cofactor of x left over.  Trial division by 2..min(limit, x), stripping
    each factor as it is found, so no composite divisor ever divides."""
    found = {}
    q = 2
    while q <= min(limit, x):
        e = _valuation(x, q)
        if e:
            found[q] = e
            x //= q**e
        q += 1
    return found, x


def _term_valuations(q: int, n: int, u: int, v: int, shift: int, bs) -> list[int]:
    """Exponent of a prime q not dividing u in each nonzero term t_b, b in
    bs, of the kernel at (n, u/v) (shift = 0), or in each abelian term
    (v-(n+1)u) t_b / (v-(b+1)u) (shift = 1):

        val_q(C(n,b)) + (b-1) val_q(b+1) + (n-b-shift) val_q(v-(b+1)u)
                                         + shift val_q(v-(n+1)u).

    The binomial's exponent is val_q(n!) - val_q(b!) - val_q((n-b)!), from
    Legendre's formula in its recursive form val_q(m!) = floor(m/q) +
    val_q(floor(m/q)!).  A factor raised to the power 0 is never looked at
    (it may be 0)."""
    fact = [0] * (n + 1)
    for m in range(q, n + 1):
        fact[m] = m // q + fact[m // q]
    last = _valuation(v - (n + 1) * u, q) if shift else 0
    out = []
    for b in bs:
        e = fact[n] - fact[b] - fact[n - b] + last
        if b > 1 and (b + 1) % q == 0:
            e += (b - 1) * _valuation(b + 1, q)
        w = v - (b + 1) * u
        if n - b != shift and w % q == 0:
            e += (n - b - shift) * _valuation(w, q)
        out.append(e)
    return out


def _coprime_fraction(num: int, den: int) -> Fraction:
    """num/den as a Fraction without Fraction's own gcd; only for den > 0
    and gcd(num, den) == 1 already proved by the caller."""
    x = object.__new__(Fraction)
    x._numerator = num
    x._denominator = den
    return x


def _lowest_terms(terms, bs, label: str, n: int, u: int, v: int, shift: int = 0) -> list:
    """Each terms[i] over den as a Fraction in lowest terms, with no gcd on
    the big integers.  terms[i] is t_b of the kernel at (n, u/v), b = bs[i],
    over den = v^n (shift = 0); or, for the abelian law at N = n+1, the term
    (v-Nu) t_b / (v-(b+1)u) over den = s v^n / v, s = v-nu (shift = 1).

    Every prime q shared by a term and den is <= n+1, so trial division
    up to n+1+shift finds them all.  The module docstring proves it for
    shift = 0.  For shift = 1, q divides v or s, so not u.  The primes of
    C(n,b) and (b+1)^(b-1) are <= n+1.  If q divides v, it divides v-Nu
    or v-(b+1)u only through N or b+1.  If q divides s but not v, it does
    not divide v-Nu = s-u, and it divides v-(b+1)u = s-(b+1-n)u only
    through n-b-1.  So the exponents of those primes (_term_valuations)
    give each term's gcd with den, and den' = den/gcd is computed once per
    exponent vector.  Every prime of den' divides v s, so
    gcd(gcd(x', v s), den') == 1 proves x'/den' is in lowest terms; that
    check and the exact division by the gcd guard the valuations.
    """
    s = v - n * u if shift else 1
    v_primes, v_rest = _small_prime_factors(v, n + 1 + shift)
    s_primes, s_rest = _small_prime_factors(s, n + 1 + shift)
    primes = sorted(v_primes.keys() | s_primes.keys())
    tops = [s_primes.get(q, 0) + (n - shift) * v_primes.get(q, 0) for q in primes]
    rest = s_rest * v_rest**n // v_rest**shift  # at n = 0, s = v
    carrier = v * s
    live = [b for b, t in zip(bs, terms) if t]
    keys = dict.fromkeys(live, ())  # b -> exponents of the primes in den'
    for q, top in zip(primes, tops):
        for b, e in zip(live, _term_valuations(q, n, u, v, shift, live)):
            keys[b] += (top - min(e, top),)
    reduced = {}  # exponents of the primes in den' -> (gcd, den')
    out = []
    for b, t in zip(bs, terms):
        if not t:
            out.append(Fraction(0))
            continue
        key = keys[b]
        if key not in reduced:
            gcd = math.prod(q ** (top - d) for q, top, d in zip(primes, tops, key))
            reduced[key] = gcd, rest * math.prod(q**d for q, d in zip(primes, key))
        gcd, den = reduced[key]
        x, r = divmod(t, gcd)
        if r or math.gcd(math.gcd(x, carrier), den) != 1:
            raise DomainError(f"exact pmf {label}: term at b={b} not reduced to lowest terms")
        out.append(_coprime_fraction(x, den))
    return out


def _exact_pmf(first: int, nums: list[int], den: int, label: str, reduce) -> Pmf:
    """The pmf nums[i] / den on first, first+1, ...; asserts the integer
    identity sum(nums) == den before reduce(nums) puts the terms in lowest
    terms as Fractions."""
    total = sum(nums)
    if total != den:
        raise DomainError(f"exact pmf {label}: numerators do not sum to the denominator")
    return Pmf(
        support=tuple(range(first, first + len(nums))),
        probs=tuple(reduce(nums)),
        exact=True,
        label=label,
    )


def _kernel_terms(label: str, n: int, u: int, v: int, shift: int = 0):
    """The reduce step of _exact_pmf for the terms at b = 0, 1, ... of the
    kernel at (n, u/v), or of the abelian law (shift = 1): _lowest_terms."""
    return lambda terms: _lowest_terms(terms, range(len(terms)), label, n, u, v, shift)


def avalanche_prob(params: AvalancheParams, a: int) -> Fraction:
    """Exact P(A = a) = (a+1)^(a-1) C(N,a) p^a (1-(a+1)p)^(N-a), one entry.

    Exposed separately from the full pmf so single entries stay cheap at
    very large N (the growth checks at N = 10^4 use this).
    """
    N, u, v = params.N, params.p.numerator, params.p.denominator
    if not 0 <= a <= N:
        raise DomainError(f"a must lie in 0..{N}, got {a}")
    label = f"avalanche(N={N},p={params.p})"
    (prob,) = _lowest_terms([_abel_term(N, a, u, v)], [a], label, N, u, v)
    return prob


def avalanche_pmf(params: AvalancheParams) -> Pmf:
    """Exact avalanche-size law on 0..N; sums to exactly 1 on the whole domain."""
    N, u, v = params.N, params.p.numerator, params.p.denominator
    label = f"avalanche(N={N},p={params.p})"
    return _exact_pmf(0, _abel_numerators([(u, N)], v), v**N, label, _kernel_terms(label, N, u, v))


def _abelian_numerators(params: AvalancheParams) -> tuple[list[int], int]:
    """Integer numerators of the abelian law on k = 1..N over one denominator.

    With t the kernel at n = N-1, p_k = pref * t_{k-1} / ((v-ku) v^(N-2)) and
    pref = (v-Nu)/(v-(N-1)u), so the numerators are (v-Nu) t_{k-1} / (v-ku)
    over (v-(N-1)u) v^(N-1) / v.  At k = N the factor v-Nu cancels the
    division by v-ku exactly; every other t_{k-1} carries v-ku to a positive
    power.  At N = 1 the one numerator is 1 and the denominator v/v is 1.
    """
    params.require_subcritical()
    N, u, v = params.N, params.p.numerator, params.p.denominator
    head = v - N * u
    nums = [head * t // (v - k * u) for k, t in enumerate(_abel_numerators([(u, N - 1)], v), 1)]
    return nums, (v - (N - 1) * u) * v ** (N - 1) // v


def abelian_pmf(params: AvalancheParams) -> Pmf:
    """Exact normalized avalanche law on 1..N with prefactor (1-Np)/(1-(N-1)p).

    p_k = pref * k^(k-2) C(N-1,k-1) p^(k-1) (1-kp)^(N-k-1).  Needs strict
    p < 1/N: the k = N term carries (1-Np)^(-1).
    """
    nums, den = _abelian_numerators(params)
    N, u, v = params.N, params.p.numerator, params.p.denominator
    label = f"abelian(N={N},p={params.p})"
    return _exact_pmf(1, nums, den, label, _kernel_terms(label, N - 1, u, v, 1))


def conditional_pmf(params: AvalancheParams) -> Pmf:
    """Exact law of the avalanche size given one seed coordinate, on 1..N.

    P(A=a) = a^(a-2) C(N-1,a-1) p^(a-1) (1-ap)^(N-a), which is the avalanche
    law at N-1 shifted up by one.  Note the last exponent is N-a, not the
    N-a-1 of the abelian law; the two are kept as distinct models.
    """
    N, u, v = params.N, params.p.numerator, params.p.denominator
    nums = _abel_numerators([(u, N - 1)], v)
    label = f"conditional(N={N},p={params.p})"
    return _exact_pmf(1, nums, v ** (N - 1), label, _kernel_terms(label, N - 1, u, v))


def pmf_mean(pmf: Pmf):
    """Sum of a * P(a); a Fraction when the pmf is exact, else a float."""
    if pmf.exact:
        nums, den = _over_common_denominator(pmf.probs)
        return Fraction(sum(a * t for a, t in zip(pmf.support, nums)), den)
    return sum(a * p for a, p in pmf.items())


def abelian_mean_closed_form(params: AvalancheParams) -> Fraction:
    """1 / (1 - (N-1)p), the closed-form mean of the abelian law."""
    params.require_subcritical()
    return 1 / (1 - (params.N - 1) * params.p)


def expectation_identity_check(params: AvalancheParams) -> bool:
    """Verify, in exact arithmetic, that

        (1-Np)/(1-(N-1)p) * sum_k k^(k-1) C(N-1,k-1) p^(k-1) (1-kp)^(N-k-1)
            == 1/(1-(N-1)p).

    The left side is sum_k k * n_k / D over the abelian law's integer
    numerators n_k and denominator D; it is compared, as one integer
    equation, against the independent closed-form mean
    abelian_mean_closed_form.
    """
    nums, den = _abelian_numerators(params)
    mean = abelian_mean_closed_form(params)
    lhs = sum(k * t for k, t in enumerate(nums, 1))
    return lhs * mean.denominator == mean.numerator * den


def limit_pmf(params: LimitParams) -> Pmf:
    """Floating limit law P(a) = e^(-alpha(a+1)) alpha^a (a+1)^(a-1) / a!
    on 0..a_max, computed in log space; the truncation deficit 1 - sum is
    reported on the Pmf, never silently dropped.

    This is the N -> infinity law of avalanche_pmf at p = alpha/N (a Borel
    law shifted to start at 0); it is validated against the exact pmf at
    large N by the test suite rather than trusted on its own.
    """
    alpha, a_max = params.alpha, params.a_max
    probs = []
    for a in range(a_max + 1):
        if alpha == 0.0:
            probs.append(1.0 if a == 0 else 0.0)
            continue
        logp = (
            -alpha * (a + 1)
            + a * math.log(alpha)
            + (a - 1) * math.log(a + 1)
            - math.lgamma(a + 1)
        )
        probs.append(math.exp(logp))
    deficit = 1.0 - math.fsum(probs)
    return Pmf(
        support=tuple(range(a_max + 1)),
        probs=tuple(probs),
        exact=False,
        label=f"limit(alpha={alpha})",
        deficit=deficit,
    )


def tail_log_ratio(pmf: Pmf, a: int) -> float:
    """log(P(a) / P(a+1)); the step-down rate of the tail."""
    if a not in pmf.index or a + 1 not in pmf.index:
        raise DomainError(f"both {a} and {a + 1} must be in the support")
    pa, pb = float(pmf.prob(a)), float(pmf.prob(a + 1))
    if pb <= 0.0 or pa <= 0.0:
        raise DomainError(f"log ratio needs positive mass at {a} and {a + 1}")
    return math.log(pa) - math.log(pb)


def powerlaw_slope(pmf: Pmf, a_min: int, a_max: int) -> float:
    """Ordinary least-squares slope of log P(a) against log a on [a_min, a_max].

    A pure power law a^s gives back s exactly; the critical limit law gives
    about -3/2 on windows like [50, 500].
    """
    if a_min >= a_max:
        raise DomainError(f"window needs a_min < a_max, got [{a_min}, {a_max}]")
    if a_min < 1:
        raise DomainError("window must start at a >= 1 (log a undefined at 0)")
    xs, ys = [], []
    for a, p in pmf.items():
        if a_min <= a <= a_max:
            if p <= 0:
                raise DomainError(f"nonpositive probability at a={a} in fit window")
            xs.append(math.log(a))
            ys.append(math.log(float(p)))
    if len(xs) < 2:
        raise DomainError(f"window [{a_min}, {a_max}] covers {len(xs)} support points")
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def local_maxima(pmf: Pmf) -> list[int]:
    """Support points whose mass strictly exceeds every existing neighbor,
    in ascending order.  Boundary points compare against their one neighbor."""
    if not pmf.support:
        raise DomainError("empty support")
    out = []
    probs = pmf.probs
    last = len(probs) - 1
    for i, a in enumerate(pmf.support):
        left_ok = i == 0 or probs[i] > probs[i - 1]
        right_ok = i == last or probs[i] > probs[i + 1]
        if left_ok and right_ok:
            out.append(a)
    return out

