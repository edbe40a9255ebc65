"""Empirical-vs-exact comparison: distances, chi-square fit, mean estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import Pmf
from .errors import DegenerateInputError, DomainError
from .sampling import SimResult


@dataclass(frozen=True)
class GofReport:
    """Goodness-of-fit summary for one simulation against an expected pmf."""

    tv_distance: float
    chi_square: float
    dof: int
    approx_p_value: float
    trials: int


def empirical_pmf(res: SimResult, support_upper: int | None = None) -> Pmf:
    """Histogram normalized by the trial count, on 0..max observed (or 0..bound)."""
    hi = max(res.histogram) if res.histogram else 0
    if support_upper is not None:
        hi = max(hi, support_upper)
    return Pmf(
        support=range(hi + 1),
        nums=[res.histogram.get(a, 0) / res.trials for a in range(hi + 1)],
        label=f"empirical({res.model},trials={res.trials})",
    )


def _tv(fp: dict, fq: dict) -> float:
    """Half the L1 distance between two size -> float probability maps,
    summed over the sorted union of their keys."""
    support = sorted(fp.keys() | fq.keys())
    return 0.5 * math.fsum(abs(fp.get(a, 0.0) - fq.get(a, 0.0)) for a in support)


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation distance: half the L1 distance over the union support."""
    return _tv(p.floats, q.floats)


def _merge_bins(
    observed: list[float], expected: list[float], min_expected: float
) -> tuple[list[float], list[float]]:
    """Merge adjacent bins, scanning from the right, until every merged bin
    has expected count >= min_expected.

    Each group is accumulated right-to-left and closed as soon as it reaches
    the threshold; if the leftmost group ends short, it is folded into the
    group on its right.  Groups are contiguous, so this is deterministic and
    independent of dict ordering.
    """
    groups: list[tuple[float, float]] = []  # (observed, expected), right to left
    acc_o = acc_e = 0.0
    for o, e in zip(reversed(observed), reversed(expected)):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            groups.append((acc_o, acc_e))
            acc_o = acc_e = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if groups:
            o, e = groups.pop()
            groups.append((o + acc_o, e + acc_e))
        else:
            groups.append((acc_o, acc_e))
    groups.reverse()
    return [g[0] for g in groups], [g[1] for g in groups]


def chi_square_gof(res: SimResult, expected: Pmf, min_expected: float = 5.0) -> GofReport:
    """Pearson chi-square of the simulated histogram against an expected pmf.

    Bins with expected count below ``min_expected`` are merged into their
    neighbor, deterministically from the right; dof is merged bins minus
    one.  The p-value is the upper chi-square tail via the regularized
    incomplete gamma below.  The TV distance is taken over the same sparse
    support as the bins, since sizes off both supports add nothing to it.  A
    statistic past the float range, which tiny expected counts can give,
    raises DegenerateInputError, since the report could not be written as
    JSON; so does a trial count past it, which no count can be scored at.
    """
    if not (math.isfinite(min_expected) and min_expected > 0):
        raise DomainError(f"min_expected must be finite and > 0, got {min_expected}")
    try:
        float(res.trials)  # no count exceeds the trial count
    except OverflowError:
        raise DegenerateInputError(
            f"a {res.trials.bit_length()}-bit trial count is past the float range"
        ) from None
    fq = expected.floats
    support = sorted(fq.keys() | res.histogram.keys())
    observed = [float(res.histogram.get(a, 0)) for a in support]
    q = [fq.get(a, 0.0) for a in support]
    obs, exp = _merge_bins(observed, [qa * res.trials for qa in q], min_expected)
    if len(obs) < 2:
        raise DegenerateInputError("all mass ends up in one merged bin")
    try:
        chi2 = math.fsum((o - e) ** 2 / e for o, e in zip(obs, exp))
    except OverflowError:  # a term or the running sum leaves the float range
        chi2 = math.inf
    if not math.isfinite(chi2):
        raise DegenerateInputError(
            f"the chi-square statistic is not a finite float (min_expected={min_expected!r})"
        )
    dof = len(obs) - 1
    return GofReport(
        tv_distance=_tv({a: c / res.trials for a, c in res.histogram.items()}, fq),
        chi_square=chi2,
        dof=dof,
        approx_p_value=regularized_gamma_q(dof / 2.0, chi2 / 2.0),
        trials=res.trials,
    )


def regularized_gamma_q(s: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s).

    Series expansion for x < s+1, Lentz continued fraction otherwise;
    both iterate to relative 1e-14, giving comfortably better than 1e-8
    absolute accuracy over the chi-square range used here.
    """
    if not s > 0:  # also nan
        raise DomainError(f"shape must be > 0, got {s}")
    if not x >= 0:
        raise DomainError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    log_prefactor = -x + s * math.log(x) - math.lgamma(s)
    if x < s + 1.0:
        # P(s,x) as a rising series, then complement.
        term = 1.0 / s
        total = term
        a = s
        for _ in range(1000):
            a += 1.0
            term *= x / a
            total += term
            if abs(term) < abs(total) * 1e-14:
                break
        return 1.0 - total * math.exp(log_prefactor)
    # Q(s,x) directly, continued fraction in modified Lentz form.
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h * math.exp(log_prefactor)
