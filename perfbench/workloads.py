"""The benchmark's three workloads.

Each workload is a closed loop of ops generated from the workload seed.  A
workload object is built once per set-up and offers:

- ``next_op()``: the next op's inputs, drawn from the seeded generator;
- ``run(op, main)``: the op through its entry point, ``main`` being
  ``avalanches.cli.main`` (or a traced wrapper of it);
- ``check(index, op, result)``: failure reasons for the op's outputs;
- ``split(op, tracer)``: the op again, as the public calls its entry point
  makes, one span per call;
- ``reproduced(op, result, split)``: failure reasons where the split-out
  pass differs from the entry point's output;
- ``late_failures()``: failures that can only be judged once the run ends.

The library is reached only through the modules in ``lib`` (see
``load_library``), so the benchmark never calls a private function.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

# Criterion 7's thresholds for one Monte Carlo campaign against its exact law.
GOF_MAX_TV = 0.01
GOF_MIN_P = 0.001


def load_library() -> SimpleNamespace:
    """Import the avalanches modules afresh, so set-up time includes the import."""
    for name in [m for m in sys.modules if m == "avalanches" or m.startswith("avalanches.")]:
        del sys.modules[name]
    modules = {
        "cli": "cli",
        "comb": "combinatorics",
        "dist": "distributions",
        "sampling": "sampling",
        "ser": "serialize",
        "stats": "stats",
        "towers": "towers",
        "urn": "urn",
    }
    return SimpleNamespace(
        **{key: importlib.import_module(f"avalanches.{name}") for key, name in modules.items()}
    )


def _over_common_denominator(probs: list[str]) -> tuple[list[int], int]:
    """Numerators of "num/den" probabilities over their least common denominator.

    Integer sums over one denominator check exact mass much faster than
    adding Fractions one by one.
    """
    pairs = [tuple(int(x) for x in p.split("/")) for p in probs]
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _write(out: str, data: bytes) -> None:
    """Write a split-out result the way the CLI writes its --out file."""
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


class McCampaign:
    """Criterion 7's urn and tower campaigns through ``simulate --compare``."""

    name = "mc_campaign"

    def __init__(self, lib, workdir: Path, seed: int, tiny: bool):
        self.lib = lib
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")
        self.trials = 1 << 15 if tiny else 1 << 17
        self.shards = 2
        # model -> (simulate flags, reference law flags for `pmf --model avalanche`)
        self.models = {
            "urn": (["--model", "urn", "--N", "20", "--M", "100"], ["--N", "20", "--p", "1/100"]),
            "tower": (["--model", "tower", "--uniform", "64,1,8,8"], ["--N", "8", "--p", "1/64"]),
        }
        for model, (_, law) in self.models.items():
            ref = self._path(model, "ref")
            if lib.cli.main(["pmf", "--model", "avalanche", *law, "--out", str(ref)]) != 0:
                raise RuntimeError(f"writing the {model} reference pmf failed")
        self.checked: list[int] = []
        self.pooled: dict[str, Counter] = {model: Counter() for model in self.models}

    def _path(self, model: str, kind: str) -> Path:
        return self.workdir / f"{model}.{kind}.json"

    def _argv(self, model: str, s: int, kind: str) -> list[str]:
        return [
            "simulate",
            *self.models[model][0],
            *("--trials", str(self.trials), "--shards", str(self.shards), "--seed", str(s)),
            *("--compare", str(self._path(model, "ref")), "--out", str(self._path(model, kind))),
        ]

    def next_op(self) -> int:
        return self.rng.getrandbits(32)

    def run(self, s: int, main) -> dict:
        return {model: main(self._argv(model, s, "out")) for model in self.models}

    def check(self, index: int, s: int, result: dict) -> list[str]:
        reasons = []
        self.checked.append(index)
        for model, rc in result.items():
            if rc != 0:
                reasons.append(f"{model}: exit code {rc}")
                continue
            doc = json.loads(self._path(model, "out").read_bytes())
            histogram = {int(a): c for a, c in doc["histogram"].items()}
            if sum(histogram.values()) != self.trials:
                reasons.append(f"{model}: histogram does not sum to {self.trials}")
            if not doc["gof"]["tv"] <= GOF_MAX_TV:
                reasons.append(f"{model}: tv {doc['gof']['tv']} > {GOF_MAX_TV}")
            self.pooled[model].update(histogram)
        return reasons

    def late_failures(self) -> dict[int, list[str]]:
        """Criterion 7's p-value test on each model's histogram pooled over the run.

        Testing each op at p > 0.001 would fail a correct sampler in about
        one run in four.  A Bonferroni level per op reaches p-values near
        1e-6, where the chi-square approximation to bins of 5 to 10 expected
        counts is too optimistic.  The pooled histogram is one campaign of
        about 2*10^7 trials, tested at criterion 7's level.  If it fails,
        every op of the run counts as failed.
        """
        lib = self.lib
        reasons = []
        for model, histogram in self.pooled.items():
            trials = sum(histogram.values())
            if not trials:
                continue
            pooled = lib.sampling.SimResult(
                histogram=dict(sorted(histogram.items())),
                trials=trials,
                seed=0,
                shards=self.shards,
                model=model,
            )
            with open(self._path(model, "ref"), encoding="utf-8") as fh:
                expected = lib.ser.pmf_from_json_dict(json.load(fh))
            p = lib.stats.chi_square_gof(pooled, expected).approx_p_value
            if not p > GOF_MIN_P:
                reasons.append(f"{model}: pooled gof p {p} <= {GOF_MIN_P} over {trials} trials")
        return {index: reasons for index in self.checked} if reasons else {}

    def split(self, s: int, tr) -> dict:
        lib = self.lib
        out = {}
        for model in self.models:
            with tr.span("cli.split"):
                args = lib.cli.build_parser().parse_args(self._argv(model, s, "split"))
                if model == "urn":
                    cfg = lib.urn.UrnConfig(N=args.N, M=args.M)
                    with tr.span("urn.simulate"):
                        res = lib.urn.simulate_urns(cfg, args.trials, args.seed, args.shards)
                    self._replay(tr, args, [((), cfg.M, cfg.N)])
                else:
                    L, w, h, n = (int(t) for t in args.uniform.split(","))
                    system = lib.towers.make_tower_system([(L, w, h)] * n)
                    with tr.span("towers.simulate"):
                        res = lib.towers.simulate_tower(system, args.trials, args.seed, args.shards)
                    self._replay(tr, args, [((j,), c.L, 1) for j, c in enumerate(system.coords)])
                with tr.span("serialize.load"):
                    with open(args.compare, encoding="utf-8") as fh:
                        expected = lib.ser.pmf_from_json_dict(json.load(fh))
                with tr.span("stats.gof") as sp:
                    report = lib.stats.chi_square_gof(res, expected)
                sp.attrs["stats.support_points"] = len(set(expected.support) | set(res.histogram))
                with tr.span("serialize.dump") as sp:
                    doc = lib.ser.simresult_to_json_dict(res)
                    doc["gof"] = lib.ser.gof_to_json_dict(report)
                    data = lib.ser.dump_json(doc).encode("utf-8")
                sp.attrs["serialize.bytes_out"] = len(data)
                _write(args.out, data)
            out[model] = data
        return out

    def _replay(self, tr, args, coords) -> None:
        """Redraw each shard's and coordinate's numbers, one call per stream.

        By the stream-position contract one call consumes the same raw
        outputs as the sampler's per-block calls, so this times the draws
        inside the simulate call just made.
        """
        smp = self.lib.sampling
        for i, n in enumerate(smp.shard_sizes(args.trials, args.shards)):
            for index, bound, per_trial in coords:
                stream = smp.SplitMix64(smp.derive_stream(args.seed, i, *index))
                with tr.span("sampling.draw") as sp:
                    stream.integers_below(bound, n * per_trial)
                sp.attrs["sampling.draws"] = n * per_trial
                sp.attrs["sampling.raw_examined"] = stream.counter

    def reproduced(self, s: int, result: dict, split: dict) -> list[str]:
        return [
            f"{model}: split-out output differs from the CLI's"
            for model, data in split.items()
            if self._path(model, "out").read_bytes() != data
        ]


class ExactLaws:
    """The three exact laws through ``pmf``, then the mean identity and TV to the limit."""

    name = "exact_laws"
    laws = ("avalanche", "abelian", "conditional")

    def __init__(self, lib, workdir: Path, seed: int, tiny: bool):
        self.lib = lib
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")
        # N is fixed so op cost stays steady; p = 1/k varies with the seed.
        self.N = 30 if tiny else 250

    def _path(self, law: str, kind: str) -> Path:
        return self.workdir / f"{law}.{kind}.json"

    def _argv(self, law: str, k: int, kind: str) -> list[str]:
        out = str(self._path(law, kind))
        return ["pmf", "--model", law, "--N", str(self.N), "--p", f"1/{k}", "--out", out]

    def next_op(self) -> int:
        return self.rng.randint(self.N + 1, 4 * self.N)

    def _params(self, k: int):
        return self.lib.dist.AvalancheParams(N=self.N, p=Fraction(1, k))

    def run(self, k: int, main) -> dict:
        dist = self.lib.dist
        rcs = {law: main(self._argv(law, k, "out")) for law in self.laws}
        params = self._params(k)
        identity = dist.expectation_identity_check(params)
        limit = dist.limit_pmf(dist.LimitParams(alpha=self.N / k, a_max=self.N))
        tv = self.lib.stats.tv_distance(dist.avalanche_pmf(params), limit)
        return {"rcs": rcs, "identity": identity, "tv": tv}

    def check(self, index: int, k: int, result: dict) -> list[str]:
        reasons = []
        for law, rc in result["rcs"].items():
            if rc != 0:
                reasons.append(f"{law}: exit code {rc}")
                continue
            doc = json.loads(self._path(law, "out").read_bytes())
            nums, den = _over_common_denominator(doc["probs"])
            if sum(nums) != den:
                reasons.append(f"{law}: probabilities do not sum to exactly 1")
            if law == "abelian":
                mean = Fraction(sum(a * n for a, n in zip(doc["support"], nums)), den)
                if mean != self.lib.dist.abelian_mean_closed_form(self._params(k)):
                    reasons.append("abelian: mean differs from the closed form")
        if result["identity"] is not True:
            reasons.append("expectation identity check failed")
        return reasons

    def late_failures(self) -> dict[int, list[str]]:
        return {}

    def split(self, k: int, tr) -> dict:
        lib, dist = self.lib, self.lib.dist
        out: dict = {}
        for law in self.laws:
            with tr.span("cli.split"):
                args = lib.cli.build_parser().parse_args(self._argv(law, k, "split"))
                params = dist.AvalancheParams(N=args.N, p=lib.ser.parse_rational(args.p))
                with tr.span(f"distributions.{law}_pmf") as sp:
                    pmf = getattr(dist, f"{law}_pmf")(params)
                sp.attrs["distributions.terms"] = len(pmf.support)
                with tr.span("serialize.dump") as sp:
                    data = lib.ser.dump_json(lib.ser.pmf_to_json_dict(pmf)).encode("utf-8")
                sp.attrs["serialize.bytes_out"] = len(data)
                _write(args.out, data)
            out[law] = data
        params = self._params(k)
        with tr.span("distributions.expectation_check") as sp:
            out["identity"] = dist.expectation_identity_check(params)
        sp.attrs["distributions.terms"] = self.N
        with tr.span("distributions.limit_pmf"):
            limit = dist.limit_pmf(dist.LimitParams(alpha=self.N / k, a_max=self.N))
        with tr.span("distributions.avalanche_pmf") as sp:
            pmf = dist.avalanche_pmf(params)
        sp.attrs["distributions.terms"] = len(pmf.support)
        with tr.span("stats.tv") as sp:
            out["tv"] = lib.stats.tv_distance(pmf, limit)
        sp.attrs["stats.support_points"] = len(set(pmf.support) | set(limit.support))
        return out

    def reproduced(self, k: int, result: dict, split: dict) -> list[str]:
        reasons = [
            f"{law}: split-out bytes differ from the CLI's"
            for law in self.laws
            if self._path(law, "out").read_bytes() != split[law]
        ]
        for key in ("identity", "tv"):
            if result[key] != split[key]:
                reasons.append(f"split-out {key} differs")
        return reasons


class Oracles:
    """One certification sweep of the exhaustive oracles against the closed forms."""

    name = "oracles"

    def __init__(self, lib, workdir: Path, seed: int, tiny: bool):
        self.lib = lib
        self.rng = random.Random(f"{self.name}/{seed}")
        self.urn_size = (3, 4) if tiny else (5, 8)  # (N balls, M urns)
        self.tower_L = (4, 6) if tiny else (9, 16)  # L_i range of the (L_i, 1, 3) coordinates
        self.census_n = 3 if tiny else 5
        self.identity_n = (4, 6) if tiny else (10, 14)
        self.masses = 4 if tiny else 9

    def next_op(self) -> tuple:
        rng = self.rng
        Ls = tuple(rng.randint(*self.tower_L) for _ in range(3))
        n = rng.randint(*self.identity_n)
        ks = tuple(rng.randint(self.masses, 4 * self.masses) for _ in range(self.masses))
        return Ls, n, ks

    def _system(self, Ls):
        return self.lib.towers.make_tower_system([(L, 1, 3) for L in Ls])

    def run(self, op: tuple, main) -> dict:
        lib = self.lib
        Ls, n, ks = op
        cfg = lib.urn.UrnConfig(*self.urn_size)
        system = self._system(Ls)
        return {
            "urn": (lib.urn.urn_pmf_bruteforce(cfg), lib.urn.urn_pmf_formula(cfg)),
            "tower": (
                lib.towers.tower_pmf_bruteforce(system),
                lib.towers.avalanche_pmf_general(system.ps()),
            ),
            "census": lib.comb.tree_census(self.census_n),
            "identity": (lib.comb.identity_lhs(n), lib.comb.identity_rhs(n)),
            "general": lib.towers.avalanche_pmf_general([Fraction(1, k) for k in ks]),
        }

    def check(self, index: int, op: tuple, result: dict) -> list[str]:
        comb = self.lib.comb
        reasons = []
        for key in ("urn", "tower"):
            oracle, closed = result[key]
            if (oracle.support, oracle.probs) != (closed.support, closed.probs):
                reasons.append(f"{key}: oracle differs from the closed form")
        census, n = result["census"], self.census_n
        expected = {c: comb.multinomial(n, c) * comb.cascade_weight(c) for c in comb.compositions(n)}
        if census.total != comb.identity_rhs(n) or census.profiles != expected:
            reasons.append("tree census differs from multinomial * cascade_weight")
        lhs, rhs = result["identity"]
        if lhs != rhs:
            reasons.append(f"identity_lhs({op[1]}) != identity_rhs")
        general = result["general"]
        if general.support != tuple(range(len(op[2]) + 1)) or sum(general.probs) != 1:
            reasons.append("heterogeneous law is not a pmf on 0..N")
        return reasons

    def late_failures(self) -> dict[int, list[str]]:
        return {}

    def split(self, op: tuple, tr) -> dict:
        lib = self.lib
        Ls, n, ks = op
        cfg = lib.urn.UrnConfig(*self.urn_size)
        with tr.span("urn.bruteforce") as sp:
            brute = lib.urn.urn_pmf_bruteforce(cfg)
        sp.attrs["urn.assignments"] = cfg.M**cfg.N
        with tr.span("urn.formula"):
            formula = lib.urn.urn_pmf_formula(cfg)
        system = self._system(Ls)
        with tr.span("towers.bruteforce") as sp:
            tower = lib.towers.tower_pmf_bruteforce(system)
        sp.attrs["towers.states"] = Ls[0] * Ls[1] * Ls[2]
        with tr.span("towers.general"):
            tower_general = lib.towers.avalanche_pmf_general(system.ps())
        with tr.span("combinatorics.census") as sp:
            census = lib.comb.tree_census(self.census_n)
        sp.attrs["combinatorics.trees"] = census.total
        with tr.span("combinatorics.identity") as sp:
            lhs = lib.comb.identity_lhs(n)
        sp.attrs["combinatorics.compositions"] = 2 ** (n - 1)
        with tr.span("combinatorics.identity"):
            rhs = lib.comb.identity_rhs(n)
        with tr.span("towers.general"):
            general = lib.towers.avalanche_pmf_general([Fraction(1, k) for k in ks])
        return {
            "urn": (brute, formula),
            "tower": (tower, tower_general),
            "census": census,
            "identity": (lhs, rhs),
            "general": general,
        }

    def reproduced(self, op: tuple, result: dict, split: dict) -> list[str]:
        reasons = [
            f"split-out {key} differs"
            for key in ("urn", "tower", "identity", "general")
            if result[key] != split[key]
        ]
        a, b = result["census"], split["census"]
        if (a.total, a.profiles) != (b.total, b.profiles):
            reasons.append("split-out census differs")
        return reasons


WORKLOADS = {w.name: w for w in (McCampaign, ExactLaws, Oracles)}
