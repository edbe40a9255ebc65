"""Command-line interface: identity checks, pmf emission, simulations, tail fits.

Every command is a pure function of its flags (plus the seed), writes UTF-8
with LF line endings, and uses the exit codes 0 (success / all checks
pass), 1 (a check failed), 2 (usage or domain error), 3 (enumeration cap
exceeded).  Relative --out paths resolve against $AVALANCHES_OUT_DIR when
that variable is set; absolute paths and stdout ignore it.

An existing --out file that is a plain regular file of ours (one link, our
user and group, writable) is unlinked and replaced by a new file with the
same permission bits.  A symlink (written through to its target), a
hard-linked file, a device such as /dev/null, a FIFO, a file of another
owner, or a file whose unlink fails is written in place, as is a missing
one.  Truncating a file in place makes ext4 free its blocks, and the close
after it starts writing the new bytes out at once (its auto_da_alloc rule),
so every rewrite of the same path pays again: a 300 KB document took a
median 77-82 ms per rewrite on a 2-vCPU AMD EPYC with ext4 mounted with
`discard`, against 0.05 ms when the old file is unlinked, because the dirty
pages of a file written in the last 30 s or so are then dropped unwritten.
A file already written out costs the same either way: a median 66 ms to
unlink and 67 ms to truncate after an fsync (12 files each).
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import combinatorics as comb
from . import serialize as ser, towers, urn
from .distributions import (
    AvalancheParams,
    LimitParams,
    abelian_pmf,
    avalanche_pmf,
    conditional_pmf,
    limit_pmf,
    powerlaw_slope,
    tail_log_ratio,
)
from .errors import DegenerateInputError, DomainError, ResourceLimitError
from .sampling import SimResult, check_bound, check_campaign, check_seed
from .stats import chi_square_gof
from .towers import (
    avalanche_pmf_general,
    make_tower_system,
    simulate_tower,
    tower_pmf_bruteforce,
)
from .urn import UrnConfig, simulate_urns, urn_pmf_bruteforce, urn_pmf_formula

OUT_DIR_ENV = "AVALANCHES_OUT_DIR"

# Caps on the size inputs, checked before any work (exit code 3).  Each keeps
# a run in the seconds range on one core (2-vCPU Xeon): `identity --n 150`
# takes 0.3-0.4 s (0.6-0.7 s with `--forest`), and the split binds the cap,
# `--s S` taking 2.9-4.7 s at its slowest S, about 50..60, and 31 MiB, where
# the previous split took 3.9-4.9 s at n = 100 (runs alternated with it,
# Python start-up included);
# `pmf --N 2000` takes about 0.9 s plus 1.6 s of JSON at
# p = 1/2001, and `tail --amax 100000` about 2 s and 160 MiB.  Each CSV row
# costs time and memory that grow with `pmf --digits`: at N = 2000,
# p = 1/2001, `--digits 10000` computes the law and writes 19 MiB of CSV in
# 10.7 s and 92 MiB, 4.9 ms a row (1.0 s and 46 MiB at the default 17
# digits, 0.02 ms a row).
IDENTITY_N_CAP = 150
PMF_N_CAP = 2000
AMAX_CAP = 10**5
DIGITS_CAP = 10**4


def _unlink_plain_file(path: Path) -> int | None:
    """Unlink ``path`` if a new file can stand in for it; return its permission bits.

    That holds for a regular file (not a symlink) with one link, owned by our
    user and group and writable by us.  Anything else, or an unlink that
    fails, returns None, and the caller writes in place.
    """
    try:
        st = path.lstat()
    except OSError:  # missing; any other fault shows when the write is tried
        return None
    if not (
        stat.S_ISREG(st.st_mode)
        and st.st_nlink == 1
        and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())
        and os.access(path, os.W_OK)
    ):
        return None
    try:
        path.unlink()
    except OSError:  # a read-only or sticky directory
        return None
    return stat.S_IMODE(st.st_mode)


def _write_output(text: str, out: str | None) -> None:
    """Write ``text`` to stdout or to the --out path (see the module docs)."""
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    env_dir = os.environ.get(OUT_DIR_ENV)
    if env_dir and not path.is_absolute():
        path = Path(env_dir) / path
    data = text.encode("utf-8")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        mode = _unlink_plain_file(path)
        if mode is None:
            path.write_bytes(data)
        else:
            # created no wider than mode under the umask, then set to it exactly
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
            with open(fd, "wb") as fh:
                os.fchmod(fd, mode)
                fh.write(data)
    except OSError as exc:  # a directory, a file where a directory should be
        raise DomainError(f"cannot write {path}: {exc.strerror}")


def _load_json(path: str, from_dict):
    """Read a stored JSON document and rebuild it with ``from_dict``.

    Unreadable or malformed input is a usage error (exit 2), not a failed
    check, so each way it can go wrong becomes a one-line DomainError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return from_dict(json.load(fh))
    except OSError as exc:  # a directory, no permission, no such file
        raise DomainError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}")
    except KeyError as exc:
        raise DomainError(f"{path} is missing the field {exc}")
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise DomainError(f"{path} is not a valid document: {exc}")


def _check_cap(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise ResourceLimitError(f"{flag} {value} exceeds the cap of {cap}")


def _parse_alpha(text: str) -> float:
    try:
        exact = Fraction(text)
        alpha = float(exact)
    except (OverflowError, ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse alpha {text!r}")
    if exact and not alpha:
        raise DomainError(f"alpha {text!r} underflows to 0 as a float")
    return alpha


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")


# ---------------------------------------------------------------- identity

def cmd_identity(args) -> int:
    n = args.n
    if args.forest and args.s is not None:
        raise DomainError("--s splits the standard identity; it does not apply with --forest")
    _check_cap("--n", n, IDENTITY_N_CAP)
    if args.forest:
        lhs = comb.forest_identity_lhs(n)
    else:
        lhs = comb.identity_lhs(n)
    rhs = comb.identity_rhs(n)
    with ser.unlimited_int_digits():
        doc = {
            "n": n,
            "variant": "forest" if args.forest else "standard",
            "lhs": str(lhs),
            "rhs": str(rhs),
            "equal": lhs == rhs,
        }
        ok = lhs == rhs
        if args.s is not None:
            partial, remainder = comb.induction_step_check(n, args.s)
            doc["s"] = args.s
            doc["partial"] = str(partial)
            doc["remainder"] = str(remainder)
            doc["induction_equal"] = partial + remainder == rhs
            ok = ok and doc["induction_equal"]
    text = ser.dump_json(doc) if args.format == "json" else ser.kv_csv(doc)
    _write_output(text, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------- trees

def cmd_trees(args) -> int:
    _check_cap("--n", args.n, comb.DEFAULT_TREE_ENUM_VERTICES - 1)
    census = comb.tree_census(args.n)
    if args.format == "json":
        text = ser.dump_json(ser.census_to_json_dict(census))
    else:
        text = ser.census_to_csv(census)
    _write_output(text, args.out)
    ok = census.total == comb.identity_rhs(args.n)
    for c in comb.compositions(args.n):
        expected = comb.multinomial(args.n, c) * comb.cascade_weight(c)
        ok = ok and census.profiles.get(c, 0) == expected
    return 0 if ok else 1


# ---------------------------------------------------------------- pmf

def cmd_pmf(args) -> int:
    if args.digits < 1:
        raise DomainError(f"--digits must be >= 1, got {args.digits}")
    _check_cap("--digits", args.digits, DIGITS_CAP)
    if args.model == "limit":
        if args.N is not None or args.p is not None:
            raise DomainError("--N/--p do not apply to the limit model; use --alpha/--amax")
        if args.alpha is None or args.amax is None:
            raise DomainError("limit model needs --alpha and --amax")
        _check_cap("--amax", args.amax, AMAX_CAP)
        pmf = limit_pmf(LimitParams(alpha=_parse_alpha(args.alpha), a_max=args.amax))
    else:
        if args.alpha is not None or args.amax is not None:
            raise DomainError("--alpha/--amax apply only to the limit model")
        if args.N is None or args.p is None:
            raise DomainError(f"{args.model} model needs --N and --p")
        _check_cap("--N", args.N, PMF_N_CAP)
        params = AvalancheParams(N=args.N, p=ser.parse_rational(args.p))
        pmf = {
            "avalanche": avalanche_pmf,
            "abelian": abelian_pmf,
            "conditional": conditional_pmf,
        }[args.model](params)
    if args.format == "json":
        text = ser.dump_json(ser.pmf_to_json_dict(pmf))
    else:
        text = ser.pmf_to_csv(pmf, sig_digits=args.digits)
    _write_output(text, args.out)
    return 0


# ---------------------------------------------------------------- simulate

def _tower_system_from_args(args):
    if args.uniform and args.coord:
        raise DomainError("give either --uniform or repeated --coord, not both")
    if args.uniform:
        try:
            L, w, h, n = (int(t) for t in args.uniform.split(","))
        except ValueError:
            raise DomainError(f"--uniform expects L,w,height,N, got {args.uniform!r}")
        _check_cap("--uniform N", n, towers.COORDINATE_CAP)
        return make_tower_system([(L, w, h)] * n)
    if args.coord:
        triples = []
        for spec in args.coord:
            try:
                L, w, h = (int(t) for t in spec.split(","))
            except ValueError:
                raise DomainError(f"--coord expects L,w,height, got {spec!r}")
            triples.append((L, w, h))
        return make_tower_system(triples)
    raise DomainError("tower model needs --uniform or at least one --coord")


def cmd_simulate(args) -> int:
    if args.format == "csv" and (args.exact_oracle or args.compare):
        raise DomainError("--exact-oracle/--compare reports need --format json")
    check_campaign(args.trials, args.shards)
    check_seed(args.seed)
    expected = _load_json(args.compare, ser.pmf_from_json_dict) if args.compare else None
    # trial, shard, seed, bound and oracle checks come first, so a cap or domain error
    # stops the run before any oracle or draw
    if args.model == "urn":
        if args.coord or args.uniform:
            raise DomainError("--coord/--uniform apply only to the tower model")
        if args.N is None or args.M is None:
            raise DomainError("urn model needs --N and --M")
        _check_cap("--N", args.N, urn._BLOCK_DRAWS)
        cfg = UrnConfig(N=args.N, M=args.M)
        check_bound(cfg.M)
        if args.exact_oracle:
            brute = urn_pmf_bruteforce(cfg)
            exact = urn_pmf_formula(cfg)
        campaign = partial(simulate_urns, cfg)
    else:
        if args.N is not None or args.M is not None:
            raise DomainError("--N/--M apply only to the urn model")
        sys_ = _tower_system_from_args(args)
        towers.check_streams(sys_.N, args.trials, args.shards)
        for c in sys_.coords:
            check_bound(c.L)
        if args.exact_oracle:
            # the oracle's caps (at most 9 coordinates) also bound the law
            brute = tower_pmf_bruteforce(sys_)
            exact = avalanche_pmf_general(sys_.ps())
        campaign = partial(simulate_tower, sys_)
    res = campaign(args.trials, args.seed, args.shards)

    doc = ser.simresult_to_json_dict(res)
    ok = True
    if args.exact_oracle:
        equal = brute.support == exact.support and brute.probs == exact.probs
        doc["oracle"] = {
            "equal": equal,
            "bruteforce": ser.pmf_to_json_dict(brute),
            "exact": ser.pmf_to_json_dict(exact),
        }
        ok = ok and equal
    if expected is not None:
        doc["gof"] = ser.gof_to_json_dict(chi_square_gof(res, expected))
    text = ser.simresult_to_csv(res) if args.format == "csv" else ser.dump_json(doc)
    _write_output(text, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------- tail

def cmd_tail(args) -> int:
    _check_cap("--amax", args.amax, AMAX_CAP)
    alpha = _parse_alpha(args.alpha)
    if alpha == 0.0:
        raise DomainError("alpha = 0 is a point mass at 0; no tail to analyze")
    try:
        lo, hi = (int(t) for t in args.fit_window.split(","))
    except ValueError:
        raise DomainError(f"--fit-window expects aMin,aMax, got {args.fit_window!r}")
    pmf = limit_pmf(LimitParams(alpha=alpha, a_max=args.amax))
    rows = []
    for a in range(args.amax):
        if float(pmf.prob(a)) <= 0.0 or float(pmf.prob(a + 1)) <= 0.0:
            break  # floating underflow: the table ends where the mass does
        lr = tail_log_ratio(pmf, a)
        rows.append((a, lr, a * lr))
    if not rows:
        raise DomainError("no representable tail rows at this alpha")
    slope = powerlaw_slope(pmf, lo, hi)
    if args.format == "json":
        doc = {
            "alpha": alpha,
            "a_max": args.amax,
            "fit_window": [lo, hi],
            "slope": slope,
            "rows": [
                {"a": a, "log_ratio": lr, "a_log_ratio": alr} for a, lr, alr in rows
            ],
        }
        text = ser.dump_json(doc)
    else:
        lines = [f"{a},{lr!r},{alr!r}" for a, lr, alr in rows]
        comment = f"# fit_window={lo},{hi} slope={slope!r}"
        text = ser.csv_lines("a,log_ratio,a_log_ratio", lines, comments=[comment])
    _write_output(text, args.out)
    return 0


# ---------------------------------------------------------------- compare

def cmd_compare(args) -> int:
    res: SimResult = _load_json(args.sim, ser.simresult_from_json_dict)
    expected = _load_json(args.pmf, ser.pmf_from_json_dict)
    report = chi_square_gof(res, expected, min_expected=args.min_expected)
    if args.format == "json":
        text = ser.dump_json(ser.gof_to_json_dict(report))
    else:
        text = ser.gof_to_csv(report)
    _write_output(text, args.out)
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avalanches",
        description="Exact avalanche-size laws, their identities, and simulators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identity", help="verify the composition identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, help="also emit the s-layer induction split")
    p.add_argument("--forest", action="store_true", help="use the forest-style sum")
    _add_output_flags(p)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("trees", help="emit the rooted labeled-tree census")
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("pmf", help="emit an exact or limit pmf")
    p.add_argument(
        "--model", choices=("avalanche", "abelian", "conditional", "limit"), required=True
    )
    p.add_argument("--N", type=int)
    p.add_argument("--p", help="excitation probability as num/den")
    p.add_argument("--alpha", help="limit parameter N*p (limit model only)")
    p.add_argument("--amax", type=int, help="support cap (limit model only)")
    p.add_argument("--digits", type=int, default=ser.DEFAULT_SIG_DIGITS)
    _add_output_flags(p)
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("simulate", help="run a seeded simulation campaign")
    p.add_argument("--model", choices=("urn", "tower"), required=True)
    p.add_argument("--N", type=int, help="urn model: number of balls")
    p.add_argument("--M", type=int, help="urn model: number of urns")
    p.add_argument("--coord", action="append", help="tower model: L,w,height (repeatable)")
    p.add_argument("--uniform", help="tower model: L,w,height,N shorthand")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument(
        "--exact-oracle",
        action="store_true",
        help="also run the exhaustive enumerator and report equality with the formula",
    )
    p.add_argument("--compare", metavar="PMF_JSON", help="expected pmf to test against")
    _add_output_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tail", help="tail log-ratios and power-law fit of the limit law")
    p.add_argument("--alpha", required=True)
    p.add_argument("--amax", type=int, required=True)
    p.add_argument("--fit-window", default="50,500", metavar="AMIN,AMAX")
    _add_output_flags(p)
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("compare", help="goodness of fit for a stored simulation")
    p.add_argument("--sim", required=True, metavar="SIM_JSON")
    p.add_argument("--pmf", required=True, metavar="PMF_JSON")
    p.add_argument("--min-expected", type=float, default=5.0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
