"""Closed-form avalanche-size distributions, their limit law, and tail analysis.

An exact law is a Pmf of integer numerators over one denominator.  The
avalanche and conditional laws and the mean identity share one integer
kernel, _abel_term, built a row at a time by _abel_row: with p = u/v, the
numerators

    t_b = (b+1)^(b-1) C(n,b) u^b (v-(b+1)u)^(n-b),   b = 0..n,

put the avalanche law at n over the single denominator v^n, and Abel's
identity says they sum to exactly v^n.  That identity is the Pmf's one
mass check, sum(nums) == den.  The conditional law is the kernel at
n = N-1 shifted up by one, and the abelian law is the conditional law
reweighted,

    p_k = (1-Np) / ((1-kp)(1-(N-1)p)) P_cond(k),   k = 1..N,

which is again integers over one denominator (abelian_pmf).  The
heterogeneous tower law, with one mass per coordinate, lives in towers.

Each kernel row K(n) at p = u/v is built once per (n, u, v), and its
lowest terms once they are made: _abel_row and _lowest_terms are each an
lru_cache on (n, u, v) and return tuples.  The avalanche law at (n, p) and
the conditional and abelian laws at (n+1, p) share them: the row, and its
lowest terms, from which the abelian law makes its own.  The laws at one
(N, p) read only K(N) and K(N-1), so each memo keeps the last two used.

Terms are put in lowest terms only when a law is written (Pmf.lowest_terms).
The kernel's terms at (n, u/v) are reduced without a gcd on the big
integers, by this lemma.  A prime q dividing both t_b and v does not divide
u (u/v is in lowest terms); if it divides v-(b+1)u it divides b+1; and the
primes of C(n,b) are at most n.  So q <= n+1, and

    gcd(t_b, v^n) = prod_q q^min(val_q(t_b), n val_q(v))

over the primes q <= n+1 dividing v, with

    val_q(t_b) = val_q(C(n,b)) + (b-1) val_q(b+1) + (n-b) val_q(v-(b+1)u)

and the binomial's exponent by Legendre's formula: small-integer arithmetic
only.  A cheap gcd against v then proves each reduced term is in lowest
terms.  That is the one lemma, and _lowest_terms the one reducer of a
kernel row.  The abelian law takes the lowest terms of the conditional
row it is built from, and then takes two gcds a term, each with one small
operand, against its small reweighting ratio.  The large-population limit
law is floating point, computed in log space, with its truncation deficit
reported rather than hidden.  Every law, exact or floating, is read as
floats through one view, Pmf.floats, nums[i] / den correctly rounded; the
tail analysis (tail_log_ratio, powerlaw_slope) reads nothing else.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import comb

from .errors import DomainError

# Consistency slack allowed between a floating Pmf's mass and its declared
# truncation deficit; purely a guard against construction bugs.
_FLOAT_MASS_TOL = 1e-9


def _as_exact(p) -> Fraction:
    if type(p) is Fraction:
        return p
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
        # p = u/v with v > 0, so p < 0 or N*p > 1 is this, in integers
        u, v = self.p.numerator, self.p.denominator
        if u < 0 or self.N * u > v:
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


def common_denominator(pairs, den: int | None = None) -> tuple[list[int], int]:
    """(numerator, denominator) pairs as numerators over the lcm of the
    denominators, each distinct denominator's scale computed once.  Exact
    laws repeat few distinct denominators, so this costs one multiplication
    a term and no gcd.  A caller that already holds the lcm passes it as
    den."""
    pairs = list(pairs)
    scale = dict.fromkeys(d for _, d in pairs)
    if den is None:
        den = math.lcm(*scale)
    for d in scale:
        scale[d] = den // d
    return [x * scale[d] for x, d in pairs], den


@dataclass(frozen=True, eq=False, kw_only=True)
class Pmf:
    """A finite probability mass function over integer support.

    Probability i is nums[i] / den.  An exact pmf holds integer numerators
    over one denominator, its mass checked as sum(nums) == den; for the
    Abel-kernel laws that check is Abel's identity.  A floating pmf holds
    float probabilities over den = 1, its mass 1 up to the declared
    truncation ``deficit``.

    The terms are put in lowest terms only when they are written
    (lowest_terms): by the producer's ``reducer`` when it passes one, a
    callable of no arguments that returns the (num, den) pairs, else by a
    gcd per term; either way as a fresh list, so a caller cannot change a
    memo.  ``floats`` maps each support value to its probability as
    a float and ``probs`` gives the probabilities as Fractions when exact;
    both are built on first use.  Two pmfs are equal when their labels,
    kinds, deficits and probabilities are (same_probs); the reducer is not
    compared.
    """

    support: tuple[int, ...]
    nums: tuple
    den: int = 1
    exact: bool = False
    label: str = ""
    deficit: float | None = None
    reducer: Callable | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "nums", tuple(self.nums))
        self._check()

    def _check(self) -> None:
        if len(self.support) != len(self.nums):
            raise DomainError("support and probs must have equal length")
        if len(set(self.support)) != len(self.support):
            raise DomainError(f"repeated support value in {self.label}")
        if any(x < 0 for x in self.nums):
            raise DomainError(f"negative probability in {self.label}")
        total = sum(self.nums)
        if self.exact:
            if self.den < 1:
                raise DomainError(f"exact pmf {self.label} has denominator {self.den}")
            if total != self.den:
                raise DomainError(
                    f"exact pmf {self.label} sums to {Fraction(total, self.den)}, not 1"
                )
        else:
            declared = self.deficit if self.deficit is not None else 0.0
            # a NaN fails every comparison, so the tolerance alone would pass it
            mismatch = abs((1.0 - float(total)) - declared) > _FLOAT_MASS_TOL
            if not math.isfinite(total + declared) or mismatch:
                raise DomainError(
                    f"floating pmf {self.label} has mass {total} vs deficit {declared}"
                )

    def same_probs(self, other: Pmf) -> bool:
        """Same support and probabilities, by nums[i] * other.den ==
        other.nums[i] * den: no gcd and no Fraction."""
        return self.support == other.support and all(
            x * other.den == y * self.den for x, y in zip(self.nums, other.nums)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pmf):
            return NotImplemented
        kind = (self.exact, self.label, self.deficit)
        return kind == (other.exact, other.label, other.deficit) and self.same_probs(other)

    def __hash__(self) -> int:
        return hash((self.support, self.exact, self.label, self.deficit))

    @cached_property
    def floats(self) -> dict[int, float]:
        """Support value -> probability as a float, nums[i] / den.  Python's
        int true division is correctly rounded, as float(Fraction) is, so an
        exact term gives the same float in or out of lowest terms."""
        return dict(zip(self.support, (x / self.den for x in self.nums)))

    @cached_property
    def probs(self) -> tuple:
        """The probabilities: Fractions when exact, else the floats."""
        return tuple(Fraction(x, self.den) for x in self.nums) if self.exact else self.nums

    def lowest_terms(self) -> list[tuple[int, int]]:
        """An exact pmf's terms as (num, den) pairs in lowest terms."""
        if self.reducer is not None:
            return list(self.reducer())
        den = self.den
        return [(x // g, den // g) for x in self.nums for g in (math.gcd(x, den),)]


def _abel_term(n: int, b: int, u: int, v: int, binom: int | None = None) -> int:
    """t_b = (b+1)^(b-1) C(n,b) u^b (v-(b+1)u)^(n-b), so that the avalanche
    law at (n, p = u/v) is P(b) = t_b / v^n.  A caller that already holds
    C(n,b) passes it as binom.

    The weight 1^(-1) at b = 0 is special-cased (int ** -1 is a float), and
    the last factor is only ever negative with exponent 0, where it is 1.
    """
    weight = (b + 1) ** (b - 1) if b else 1
    if binom is None:
        binom = comb(n, b)
    return binom * u**b * weight * (v - (b + 1) * u) ** (n - b)


@lru_cache(maxsize=2)
def _abel_row(n: int, u: int, v: int) -> tuple[int, ...]:
    """The kernel's terms t_0..t_n at (n, u/v), carrying the binomial from
    term to term, C(n,b+1) = C(n,b) (n-b) / (b+1), instead of computing
    each C(n,b) afresh.  At n = 250 (2-vCPU Xeon) the row takes 1.4-1.6 ms,
    against 2.0-2.3 ms with math.comb per term.  The laws at one (N, p)
    read only K(N) and K(N-1), so the memo keeps two rows."""
    row = []
    binom = 1
    for b in range(n + 1):
        row.append(_abel_term(n, b, u, v, binom))
        binom = binom * (n - b) // (b + 1)
    return tuple(row)


def _valuation(x: int, q: int) -> int:
    """Exponent of the prime q in the nonzero integer x."""
    e = 0
    while x % q == 0:
        x //= q
        e += 1
    return e


def _small_prime_factors(x: int, limit: int) -> dict[int, int]:
    """The primes q <= limit dividing x >= 1, with their exponents.  Trial
    division by 2..min(limit, x), stripping each factor as it is found, so
    no composite divisor ever divides."""
    found = {}
    q = 2
    while q <= min(limit, x):
        e = _valuation(x, q)
        if e:
            found[q] = e
            x //= q**e
        q += 1
    return found


def _term_valuations(q: int, n: int, u: int, v: int) -> list[int]:
    """Exponent of a prime q not dividing u in each term t_b of the kernel
    at (n, u/v):

        val_q(C(n,b)) + (b-1) val_q(b+1) + (n-b) val_q(v-(b+1)u).

    The binomial's exponent is val_q(n!) - val_q(b!) - val_q((n-b)!), from
    Legendre's formula in its recursive form val_q(m!) = floor(m/q) +
    val_q(floor(m/q)!).  A factor raised to the power 0 is never looked at,
    nor a zero factor, whose term is zero and has no exponent."""
    fact = [0] * (n + 1)
    for m in range(q, n + 1):
        fact[m] = m // q + fact[m // q]
    out = []
    for b in range(n + 1):
        e = fact[n] - fact[b] - fact[n - b]
        if b > 1 and (b + 1) % q == 0:
            e += (b - 1) * _valuation(b + 1, q)
        w = v - (b + 1) * u
        if b != n and w and w % q == 0:
            e += (n - b) * _valuation(w, q)
        out.append(e)
    return out


@lru_cache(maxsize=2)
def _lowest_terms(n: int, u: int, v: int) -> tuple[tuple[int, int], ...]:
    """The kernel's row t_0..t_n at (n, u/v) over v^n as (num, den) pairs in
    lowest terms, with no gcd on the big integers; memoized, as the row is.

    Every prime q shared by a term and v^n is <= n+1 (module docstring), so
    trial division of v up to n+1 finds them all, and their exponents in a
    term give its gcd with v^n; den' = v^n / gcd is computed once per gcd.
    Every prime of den' divides v, so gcd(gcd(x', v), den') == 1 proves
    x'/den' is in lowest terms; that check and the exact division by the
    gcd guard the lemma.
    """
    primes = _small_prime_factors(v, n + 1)
    den = v**n
    vecs = [()] * (n + 1)  # exponents of the primes in each term's gcd
    for q, e_v in primes.items():
        es = _term_valuations(q, n, u, v)
        vecs = [vec + (min(e, n * e_v),) for vec, e in zip(vecs, es)]
    reduced = {}  # exponents of the primes in the gcd -> (gcd, den')
    out = []
    for b, (t, vec) in enumerate(zip(_abel_row(n, u, v), vecs)):
        if not t:
            out.append((0, 1))
            continue
        if vec not in reduced:
            gcd = math.prod(q**g for q, g in zip(primes, vec))
            reduced[vec] = gcd, den // gcd
        gcd, den_b = reduced[vec]
        x, r = divmod(t, gcd)
        if r or math.gcd(math.gcd(x, v), den_b) != 1:
            raise DomainError(
                f"Abel kernel (n={n}, p={u}/{v}): term at {b} not reduced to lowest terms"
            )
        out.append((x, den_b))
    return tuple(out)


def _kernel_pmf(first: int, n: int, u: int, v: int, label: str) -> Pmf:
    """The kernel at (n, u/v), t_b / v^n, as a pmf on first..first+n.  Its
    mass check is Abel's identity, sum(t_b) == v^n, on the integers."""
    return Pmf(
        support=range(first, first + n + 1),
        exact=True,
        label=label,
        nums=_abel_row(n, u, v),
        den=v**n,
        reducer=partial(_lowest_terms, n, u, v),
    )


def avalanche_prob(params: AvalancheParams, a: int) -> Fraction:
    """Exact P(A = a) = (a+1)^(a-1) C(N,a) p^a (1-(a+1)p)^(N-a), one entry.

    One entry at N = 10^4 takes 23-42 ms, 3-8 ms of it for the term and
    v^N and the rest for the Fraction's gcd (p = 1/10^4, 1/(2*10^4),
    3/10^5; 2-vCPU Xeon, Python 3.11.7).  Its float is _abel_term(...) /
    v^N, correctly rounded, with no gcd.
    """
    N, u, v = params.N, params.p.numerator, params.p.denominator
    if not 0 <= a <= N:
        raise DomainError(f"a must lie in 0..{N}, got {a}")
    return Fraction(_abel_term(N, a, u, v), v**N)


def avalanche_pmf(params: AvalancheParams) -> Pmf:
    """Exact avalanche-size law on 0..N; sums to exactly 1 on the whole domain."""
    N, u, v = params.N, params.p.numerator, params.p.denominator
    return _kernel_pmf(0, N, u, v, f"avalanche(N={N},p={params.p})")


def abelian_pmf(params: AvalancheParams) -> Pmf:
    """Exact normalized avalanche law on 1..N with prefactor (1-Np)/(1-(N-1)p).

    p_k = pref * k^(k-2) C(N-1,k-1) p^(k-1) (1-kp)^(N-k-1).  Needs strict
    p < 1/N: the k = N term carries (1-Np)^(-1).  That is the conditional
    law reweighted, p_k = (1-Np) / ((1-kp)(1-(N-1)p)) P_cond(k), so with t
    the kernel at n = N-1 and s = v-(N-1)u its numerators are

        m_k = (v-Nu) t_{k-1} / (v-ku),  k < N,     m_N = t_{N-1},

    over s v^(N-2): each t_{k-1} with k < N carries v-ku to a positive
    power, and at k = N the division cancels v-Nu.

    The terms are reduced from the conditional law's: t_{k-1} / v^(N-1) in
    lowest terms x/d, by the kernel's lemma, times the ratio a/b in lowest
    terms, (v-Nu) v / ((v-ku) s) for k < N and v/s at k = N.  With g1 =
    gcd(x, b) and g2 = gcd(a, d), (x/g1 * a/g2) / (d/g2 * b/g1) is in lowest
    terms: x/g1 is prime to d and to b/g1, and a/g2 to b and to d/g2.
    """
    params.require_subcritical()
    N, u, v = params.N, params.p.numerator, params.p.denominator
    head, s = v - N * u, v - (N - 1) * u
    row = _abel_row(N - 1, u, v)
    nums = [head * (t // (v - k * u)) for k, t in enumerate(row[:-1], 1)]
    return Pmf(
        support=range(1, N + 1),
        exact=True,
        label=f"abelian(N={N},p={params.p})",
        nums=nums + [row[-1]],
        den=s * v ** (N - 1) // v,  # at N = 1, v/v
        reducer=partial(_abelian_lowest_terms, N, u, v),
    )


def _abelian_lowest_terms(N: int, u: int, v: int) -> list[tuple[int, int]]:
    """abelian_pmf's terms in lowest terms: the conditional row t_0..t_{N-1}
    in lowest terms (the kernel's, reduced once by its lemma), each term
    times its small ratio a/b in lowest terms, with two more gcds a term
    (abelian_pmf)."""
    head, s = v - N * u, v - (N - 1) * u
    out = []
    for k, (x, d) in enumerate(_lowest_terms(N - 1, u, v), 1):
        a, b = (head * v, (v - k * u) * s) if k < N else (v, s)
        g = math.gcd(a, b)
        a, b = a // g, b // g
        g1, g2 = math.gcd(x, b), math.gcd(a, d)
        out.append((x // g1 * (a // g2), d // g2 * (b // g1)))
    return out


def conditional_pmf(params: AvalancheParams) -> Pmf:
    """Exact law of the avalanche size given one seed coordinate, on 1..N.

    P(A=a) = a^(a-2) C(N-1,a-1) p^(a-1) (1-ap)^(N-a), which is the avalanche
    law at N-1 shifted up by one.  Note the last exponent is N-a, not the
    N-a-1 of the abelian law; the two are kept as distinct models.
    """
    N, u, v = params.N, params.p.numerator, params.p.denominator
    return _kernel_pmf(1, N - 1, u, v, f"conditional(N={N},p={params.p})")


def pmf_mean(pmf: Pmf):
    """Sum of a * P(a); a Fraction when the pmf is exact, else a float."""
    total = sum(a * x for a, x in zip(pmf.support, pmf.nums))
    return Fraction(total, pmf.den) if pmf.exact else total


def abelian_mean_closed_form(params: AvalancheParams) -> Fraction:
    """1 / (1 - (N-1)p), the closed-form mean of the abelian law."""
    params.require_subcritical()
    return 1 / (1 - (params.N - 1) * params.p)


def expectation_identity_check(params: AvalancheParams) -> bool:
    """Verify, in exact arithmetic, that

        (1-Np)/(1-(N-1)p) * sum_k k^(k-1) C(N-1,k-1) p^(k-1) (1-kp)^(N-k-1)
            == 1/(1-(N-1)p).

    The left side is the mean of abelian_pmf (pmf_mean), compared in exact
    arithmetic against the independent closed-form mean
    abelian_mean_closed_form.  abelian_pmf reads the kernel row at N-1
    from its memo (_abel_row), so after the abelian or conditional law at
    (N, p), or the avalanche law at (N-1, p), the check costs the
    reweighting and the sum, not a new row; it never reduces to lowest
    terms.
    """
    return pmf_mean(abelian_pmf(params)) == abelian_mean_closed_form(params)


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
        support=range(a_max + 1),
        nums=probs,
        label=f"limit(alpha={alpha})",
        deficit=deficit,
    )


def tail_log_ratio(pmf: Pmf, a: int) -> float:
    """log(P(a) / P(a+1)); the step-down rate of the tail."""
    if a not in pmf.floats or a + 1 not in pmf.floats:
        raise DomainError(f"both {a} and {a + 1} must be in the support")
    pa, pb = pmf.floats[a], pmf.floats[a + 1]
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
    for a, p in pmf.floats.items():
        if a_min <= a <= a_max:
            if p <= 0.0:  # also a positive exact term that underflows
                raise DomainError(f"nonpositive float probability at a={a} in fit window")
            xs.append(math.log(a))
            ys.append(math.log(p))
    if len(xs) < 2:
        raise DomainError(f"window [{a_min}, {a_max}] covers {len(xs)} support points")
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
