"""JSON and CSV renderings of the shared value types.

All JSON is emitted with sorted keys and a trailing newline so identical
inputs give byte-identical files; big integers travel as decimal strings,
exact probabilities as "num/den".  CSV uses LF line endings and always
carries a header row.

An exact Pmf holds integer numerators over one denominator.  The JSON
writer is where its terms are put in lowest terms (Pmf.lowest_terms); the
CSV writer renders each numerator over the one denominator as it is
(decimal_str), since the digits depend only on the value.  A floating Pmf
is written from its float view (Pmf.floats), each float as its repr.  The
reader accepts terms in or out of lowest terms, converts each distinct
denominator string once, and puts the terms over their lcm with no gcd,
leaving the mass to the Pmf's check.
"""

from __future__ import annotations

import decimal
import json
import math
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from .combinatorics import TreeCensus
from .distributions import Pmf, common_denominator
from .errors import DomainError, ResourceLimitError, echo
from .sampling import SimResult
from .stats import GofReport

DEFAULT_SIG_DIGITS = 17

# The most bits of an exact law `pmf` writes: the cli caps N times the bit
# length of v, p = u/v, by it, and every reduced numerator and denominator
# of the three laws divides v^N.  A stored exact document is refused when
# the lcm of its denominators has more bits, or any number in it more
# digits than 2^PMF_BITS_CAP has (7225).
PMF_BITS_CAP = 24000
_PMF_DIGITS_CAP = int(PMF_BITS_CAP * math.log10(2)) + 1

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


@contextmanager
def unlimited_int_digits():
    """Lift the interpreter's limit on int <-> str conversions (Python 3.11+
    refuses ints of more than 4300 digits) for one document, then restore it.
    Also usable as a decorator."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10 has no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _split_rational(text: str) -> tuple[str, str]:
    """The numerator and denominator strings of 'num/den' or a bare integer
    (denominator "1"); decimals are rejected on purpose (a decimal literal
    would silently stop being exact)."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise DomainError(f"expected an exact rational like 3/40, got {echo(text)}")
    num, _, den = text.partition("/")
    return num, den or "1"


def _denominator(den: str, text: str) -> int:
    d = int(den)
    if not d:
        raise DomainError(f"zero denominator in {echo(text.strip())}")
    return d


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' or a bare integer as a Fraction."""
    num, den = _split_rational(text)
    try:
        return Fraction(int(num), _denominator(den, text))
    except ValueError as exc:  # more digits than Python 3.11+ converts
        raise DomainError(f"cannot parse a rational of {len(text.strip())} characters: {exc}")


def _json_typed(x, kind: str, field: str):
    """A stored field as read by json.load, refused unless it has the JSON
    type it is written as: int() would truncate a float and turn a bool into
    0 or 1, float() reads the string "0.5", and bool() the string "false" as
    true.  A JSON number is an int or a float, but not a bool."""
    types = {"integer": (int,), "number": (int, float), "string": (str,), "boolean": (bool,)}
    if type(x) not in types[kind]:
        raise DomainError(f"{field} must be a JSON {kind}, got {echo(x)}")
    return x


def _histogram_key(key: str) -> int:
    """A histogram key as written, str(a) for a size a >= 0.  int() alone
    would also read "00", " 1" and "+1", so two keys could name one size."""
    try:
        a = int(key)
    except ValueError:
        a = -1
    if a < 0 or key != str(a):
        raise DomainError(f"histogram key must be a size a >= 0 written as str(a), got {echo(key)}")
    return a


def decimal_str(num: int, den: int, sig_digits: int = DEFAULT_SIG_DIGITS) -> str:
    """Decimal rendering of the rational num/den, den > 0, at the given
    precision, in or out of lowest terms: the digits depend only on the value.

    It prints as Decimal(num) / Decimal(den) would in a context of
    sig_digits digits (half-even), without converting den, which for the
    exact laws has thousands of digits: q, r = divmod(|num| 10^k, den) with
    q of at least sig_digits+1 digits, and the exact decimal (10q + (r !=
    0)) 10^-(k+1) is rounded to sig_digits digits.  The sticky last digit
    stands for the discarded r/den, which matters only at an exact tie, so
    the rounding is the same.  An exact quotient takes the exponent nearest
    0, as Decimal division would ("0.25", "2", "1E+1").  At N = 2000 (2-vCPU
    Xeon) a row takes 0.02 ms at 17 digits, against 1.8 ms for the
    division, and 4.5 ms at 10^4 digits, against 3.7 ms.
    """
    if sig_digits < 1:
        raise DomainError(f"precision must be >= 1, got {sig_digits}")
    # |num|/den > 2^-bits, so q gets sig_digits digits plus one spare for the
    # float estimate of bits * log10(2)
    bits = den.bit_length() - abs(num).bit_length() + 1
    k = max(0, sig_digits + 1 + math.ceil(bits * math.log10(2)))
    q, r = divmod(abs(num) * 10**k, den)
    scaled = decimal.Decimal((10 * q + (r != 0)) * (-1 if num < 0 else 1))
    with decimal.localcontext() as ctx:
        ctx.prec = sig_digits
        ctx.clear_flags()
        d = scaled.scaleb(-(k + 1), ctx)  # rounded to sig_digits
        if not ctx.flags[decimal.Inexact]:
            # strip trailing zeros, but not past exponent 0 nor to more digits
            # than the context holds
            top = d.normalize(ctx).as_tuple().exponent
            d = d.quantize(decimal.Decimal(1).scaleb(min(top, max(0, d.as_tuple().exponent))))
        return str(d)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def csv_lines(header: str, rows, comments: list[str] | None = None) -> str:
    lines = [header]
    lines.extend(rows)
    lines.extend(comments or [])
    return "\n".join(lines) + "\n"


def kv_csv(doc: dict) -> str:
    """A flat document as "field,value" rows, in the document's key order."""
    return csv_lines("field,value", [f"{k},{v}" for k, v in doc.items()])


# ---------------------------------------------------------------- pmf

def _decimal_strs(xs) -> list[str]:
    """str(x) of each int x >= 0.  CPython 3.11's str() is quadratic in the
    digits, so an x of 4,000 bits or more is split at about half its digits
    by one divmod by a power of 10, each power computed once per call.  The
    2,001 numerators of `pmf --N 2000 --p 2/4093`, up to 7,224 digits, take
    1.27 s against 1.88 s for str() (2-vCPU Xeon); smaller ints go to str()."""
    powers: dict[int, int] = {}

    def convert(x: int) -> str:
        bits = x.bit_length()
        if bits < 4000:
            return str(x)
        k = bits * 3 // 20  # about half of the bits * log10(2) digits, so hi > 0
        if k not in powers:
            powers[k] = 10**k
        hi, lo = divmod(x, powers[k])
        return convert(hi) + convert(lo).zfill(k)

    return [convert(x) for x in xs]


def _exact_prob_strs(pmf: Pmf) -> list[str]:
    """An exact pmf's probabilities as "num/den" in lowest terms, which are
    made here (Pmf.lowest_terms), with each distinct denominator converted
    to a string once (the exact laws repeat a few denominators of thousands
    of digits)."""
    terms = pmf.lowest_terms()
    dens = list(dict.fromkeys(d for _, d in terms))
    den_strs = dict(zip(dens, _decimal_strs(dens)))
    nums = _decimal_strs(x for x, _ in terms)
    return [f"{x}/{den_strs[d]}" for x, (_, d) in zip(nums, terms)]


@unlimited_int_digits()
def pmf_to_json_dict(pmf: Pmf) -> dict:
    """The pmf as a JSON document; exact probabilities as "num/den"."""
    probs = _exact_prob_strs(pmf) if pmf.exact else list(pmf.floats.values())
    out = {
        "label": pmf.label,
        "exact": pmf.exact,
        "support": list(pmf.support),
        "probs": probs,
    }
    if pmf.deficit is not None:
        out["deficit"] = pmf.deficit
    return out


@unlimited_int_digits()
def pmf_to_json(pmf: Pmf) -> str:
    """dump_json(pmf_to_json_dict(pmf)), the text the CLI writes.

    An exact pmf with no deficit is written with one join per list, not
    through json's pure-Python indenting encoder: its "num/den" strings hold
    only digits and a slash, so they need no escaping, and only the label
    goes through json.dumps.  An exact Pmf is never empty (its mass is 1),
    so neither list renders as [].  On the 270 KB document of the avalanche
    law at N = 250, p = 1/600, the joins take about 0.3 ms where the encoder
    took 1.7 ms; the "num/den" strings themselves take 2.3 ms either way
    (2-vCPU Xeon, medians of 15).  Any other pmf takes the generic path.
    """
    if not pmf.exact or pmf.deficit is not None:
        return dump_json(pmf_to_json_dict(pmf))
    probs = '",\n    "'.join(_exact_prob_strs(pmf))
    support = ",\n    ".join(map(str, pmf.support))
    return (
        f'{{\n  "exact": true,\n  "label": {json.dumps(pmf.label)},\n'
        f'  "probs": [\n    "{probs}"\n  ],\n  "support": [\n    {support}\n  ]\n}}\n'
    )


def _exact_terms(probs) -> tuple[list[int], int]:
    """Stored "num/den" strings (or bare integers) as numerators over the
    lcm of their denominators.  Each distinct denominator string is
    converted once, and no gcd is taken: the terms need not be in lowest
    terms, and the Pmf's check sum(nums) == den proves the mass.

    The lcm is kept as the denominators are read, and a document whose
    lcm passes PMF_BITS_CAP bits is refused (exit 3) before any numerator
    is scaled, as is one with a number too long to convert cheaply: the
    lcm of n denominators of d digits each costs time quadratic in n d."""
    dens: dict[str, int] = {}
    pairs = []
    lcm = 1
    for p in probs:
        num, den = _split_rational(_json_typed(p, "string", "exact prob"))
        digits = max(len(num.lstrip("+-0")), len(den.lstrip("0")))
        if digits > _PMF_DIGITS_CAP:
            raise ResourceLimitError(
                f"an exact prob with a number of {digits} digits exceeds the cap of "
                f"{_PMF_DIGITS_CAP} ({PMF_BITS_CAP} bits)"
            )
        if den not in dens:
            dens[den] = _denominator(den, p)
            lcm = math.lcm(lcm, dens[den])
            if lcm.bit_length() > PMF_BITS_CAP:
                raise ResourceLimitError(
                    f"the lcm of the exact probs' denominators exceeds the cap of "
                    f"{PMF_BITS_CAP} bits"
                )
        pairs.append((int(num), dens[den]))
    return common_denominator(pairs, lcm)


@unlimited_int_digits()
def pmf_from_json_dict(d: dict) -> Pmf:
    """A stored pmf; an exact one as integer numerators over one denominator."""
    exact = _json_typed(d["exact"], "boolean", "exact")
    if exact:
        nums, den = _exact_terms(d["probs"])
    else:
        nums, den = [float(_json_typed(p, "number", "prob")) for p in d["probs"]], 1
    return Pmf(
        support=tuple(_json_typed(a, "integer", "support value") for a in d["support"]),
        exact=exact,
        label=_json_typed(d["label"], "string", "label"),
        deficit=float(_json_typed(d["deficit"], "number", "deficit")) if "deficit" in d else None,
        nums=nums,
        den=den,
    )


def pmf_to_csv(pmf: Pmf, sig_digits: int = DEFAULT_SIG_DIGITS) -> str:
    """The pmf as "a,prob" rows; an exact term is rendered from its
    numerator over the pmf's one denominator, never reduced, and a float
    one as its repr, whatever the precision."""
    if pmf.exact:
        probs = (decimal_str(x, pmf.den, sig_digits) for x in pmf.nums)
    else:
        probs = map(repr, pmf.floats.values())
    return csv_lines("a,prob", [f"{a},{p}" for a, p in zip(pmf.support, probs)])


# ---------------------------------------------------------------- simulation

def simresult_to_json_dict(res: SimResult) -> dict:
    out = {
        "model": res.model,
        "trials": res.trials,
        "seed": res.seed,
        "shards": res.shards,
        "histogram": {str(a): c for a, c in sorted(res.histogram.items())},
    }
    out.update(res.params)
    return out


def simresult_from_json_dict(d: dict) -> SimResult:
    known = {"model", "trials", "seed", "shards", "histogram"}
    histogram = {
        _histogram_key(a): _json_typed(c, "integer", "histogram count")
        for a, c in d["histogram"].items()
    }
    return SimResult(
        histogram=histogram,
        trials=_json_typed(d["trials"], "integer", "trials"),
        seed=_json_typed(d["seed"], "integer", "seed"),
        shards=_json_typed(d["shards"], "integer", "shards"),
        model=_json_typed(d["model"], "string", "model"),
        params={k: v for k, v in d.items() if k not in known},
    )


def simresult_to_csv(res: SimResult) -> str:
    rows = [f"{a},{c}" for a, c in sorted(res.histogram.items())]
    return csv_lines("a,count", rows)


# ---------------------------------------------------------------- census

def census_to_json_dict(census: TreeCensus) -> dict:
    ordered = sorted(census.profiles.items(), key=lambda kv: (kv[0].r, kv[0].parts))
    return {
        "n": census.n,
        "total": str(census.total),
        "profiles": [
            {"parts": list(c.parts), "count": str(count)} for c, count in ordered
        ],
    }


def census_to_csv(census: TreeCensus) -> str:
    ordered = sorted(census.profiles.items(), key=lambda kv: (kv[0].r, kv[0].parts))
    rows = [f"{' '.join(map(str, c.parts))},{count}" for c, count in ordered]
    return csv_lines("parts,count", rows)


# ---------------------------------------------------------------- gof

def gof_to_json_dict(report: GofReport) -> dict:
    return {
        "tv": report.tv_distance,
        "chi2": report.chi_square,
        "dof": report.dof,
        "p": report.approx_p_value,
        "trials": report.trials,
    }


def gof_to_csv(report: GofReport) -> str:
    return kv_csv(gof_to_json_dict(report))
