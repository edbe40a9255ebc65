"""End-to-end and per-layer benchmark of the avalanches package.

Run from the repository root:

    python3 perfbench/run.py --workload mc_campaign --seed 1 --seconds 35 --trace 0

Each workload is a closed loop with one client in this one process: the next
op starts when the previous one has finished.  Ops are generated from
``--seed``; the library sees only the generated inputs, through its public
functions and ``avalanches.cli.main`` called in-process.

Workloads (see ``workloads.py``; why each was chosen is also in
``BENCHMARK.json``):

- ``mc_campaign``: ``simulate --compare`` for criterion 7's urn (N=20, M=100)
  and tower ((64,1,8) x 8) models, 2^17 trials over 2 shards.  Heavy:
  sampling and the urn/tower cascades.  Light: stats (9- and 21-point
  supports), serialize.  distributions works only at set-up.
- ``exact_laws``: ``pmf`` for the avalanche, abelian and conditional laws at
  N=250, p=1/k with k in [N+1, 4N], then ``expectation_identity_check`` and
  ``tv_distance`` of the avalanche law to ``limit_pmf``.  Heavy:
  distributions, serialize, stats.tv.  sampling, urn and towers do nothing.
- ``oracles``: one certification sweep of the enumeration oracles (urn 8^5
  assignments, a 3-coordinate tower, ``tree_census(5)``, ``identity_lhs``
  for n in 10..14, ``avalanche_pmf_general`` on 9 masses).  Heavy: urn and
  towers enumeration, combinatorics.  The samplers do nothing.

Which workload ROADMAP items 2-5 should move, and which they should leave
alone:

- item 2 (integer pmf kernel): moves ``exact_laws``; ``mc_campaign`` and
  ``oracles`` stay.
- item 3 (polynomial heterogeneous law): moves ``oracles`` (towers.general);
  ``exact_laws`` and ``mc_campaign`` stay.
- item 4 (shared cascade kernel, cheaper draws): moves ``mc_campaign``;
  ``oracles`` and ``exact_laws`` stay.
- item 5 (occupancy oracle): moves ``oracles`` (urn.bruteforce);
  ``mc_campaign`` and ``exact_laws`` stay.

With ``--trace 0`` the run reports the end-to-end metrics, timed without
spans: ``setup_s`` (median of several set-ups, each re-importing the package
and redoing the workload's set-up, half of them before the ops and half
after), ``op_p50_s`` and ``op_p90_s`` (op latency percentiles; a run makes
at least 100 ops so that 10 or more lie beyond p90), ``ops_per_s`` (ops that
passed their checks per second spent in ops), ``peak_rss_mib`` and
``success_rate`` (1 - error_rate; the error rate itself is printed on its
own line, since a metric that reads 0 has no relative spread).

Timings are scaled to a reference machine speed.  A fixed probe (see
``probe``) runs before each op and each set-up; a timing is multiplied by
``PROBE_REF_S`` over the median probe time of nearby ops.  The shared
machine the benchmark was tuned on changes speed by up to 1.5x for tens of
seconds at a time, which moved unscaled medians by up to 25% between runs.
The unscaled wall-clock percentiles are printed as ``info`` lines.

With ``--trace 1`` the run reports the per-layer metrics.  Each op runs once
through its entry point, then again split into the public calls that entry
point makes, one span per call; the split-out pass must reproduce the entry
point's output exactly.  The two passes alternate which goes first.  Layer
metrics are per-op medians, named after the package's modules; 0 means the
layer did no work in that workload.  Spans are kept in memory and written to
``.bench_build/perfbench/`` when the run ends.  Derived figures:

- ``cli.glue_s``: ``cli.main_s`` minus the library calls split out of it
  (argument parsing, dict building, file writes).
- ``urn.cascade_s``, ``towers.cascade_s``: the simulate call minus its draws,
  which are replayed with ``SplitMix64(derive_stream(seed, i[, j]))
  .integers_below(...)`` once per shard and coordinate.  The stream-position
  contract makes the replay consume the raw outputs the sampler consumed.
- ``sampling.accept_ratio``: draws over raw outputs examined;
  ``sampling.raw_bytes``: 8 bytes per raw output.
- ``combinatorics.compositions``: 2^(n-1) for ``identity_lhs(n)``.
- ``trace.overhead_s``: the split-out pass, less the draw replay, minus the
  entry pass.  It is tracing cost plus noise, and may read slightly negative.

The layer metrics each optimisation should move: sampling and the
``*.cascade_s`` and ``*.simulate_s`` figures move ``op_p50_s`` and
``ops_per_s`` on ``mc_campaign`` only; ``distributions.*``, ``serialize.dump_s``
and ``stats.tv_s`` move ``exact_laws``; the ``*.bruteforce_s``,
``*.general_s`` and ``combinatorics.*`` figures move ``oracles``;
``stats.gof_s`` and ``serialize.load_s`` move ``mc_campaign``; ``cli.*`` moves
``mc_campaign`` and ``exact_laws``.

The last line of standard output is the JSON result.  Lines before it give the
provenance (commit, Python and numpy versions, CPU, seed, op count) and each
metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from fractions import Fraction
from time import perf_counter

import numpy as np
from workloads import WORKLOADS, load_library

# One client, no extra threads: keep numpy's BLAS pool to the calling thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 11
# Seconds the speed probe takes on the machine the benchmark was tuned on
# (2-vCPU Intel Xeon, Python 3.11, numpy 2.4); timings are scaled to it.
PROBE_REF_S = 0.0044
PROBE_WINDOW = 2  # ops on each side whose probes set an op's scale
MIN_OPS = 100  # untraced: p90 needs at least 10 ops beyond it
MIN_TRACED_OPS = 20
TINY_MIN_OPS = 5
MAX_MEASURE_S = 120.0  # keeps a run under the 180 s limit on a slow machine

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "cli.main_s": "s",
    "cli.glue_s": "s",
    "sampling.draw_s": "s",
    "sampling.draws": "count",
    "sampling.raw_examined": "count",
    "sampling.accept_ratio": "ratio",
    "sampling.raw_bytes": "bytes",
    "urn.simulate_s": "s",
    "urn.cascade_s": "s",
    "urn.bruteforce_s": "s",
    "urn.assignments": "count",
    "urn.formula_s": "s",
    "towers.simulate_s": "s",
    "towers.cascade_s": "s",
    "towers.bruteforce_s": "s",
    "towers.states": "count",
    "towers.general_s": "s",
    "distributions.avalanche_pmf_s": "s",
    "distributions.abelian_pmf_s": "s",
    "distributions.conditional_pmf_s": "s",
    "distributions.expectation_check_s": "s",
    "distributions.limit_pmf_s": "s",
    "distributions.terms": "count",
    "stats.tv_s": "s",
    "stats.gof_s": "s",
    "stats.support_points": "count",
    "serialize.dump_s": "s",
    "serialize.load_s": "s",
    "serialize.bytes_out": "bytes",
    "combinatorics.census_s": "s",
    "combinatorics.trees": "count",
    "combinatorics.identity_s": "s",
    "combinatorics.compositions": "count",
    "trace.overhead_s": "s",
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    op: int | None
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans in memory: name, start, end, parent span and op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), name, self.op, parent)
        self.spans.append(sp)
        self._open.append(sp)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._open.pop()

    def dump(self, path: Path, provenance: dict) -> None:
        rows = [[s.id, s.name, s.op, s.parent, s.start, s.end, s.attrs] for s in self.spans]
        columns = ["id", "name", "op", "parent", "start", "end", "attrs"]
        doc = {"provenance": provenance, "columns": columns, "spans": rows}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def op_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced op from its spans."""
    m: dict[str, float] = defaultdict(float)
    for s in spans:
        m[f"{s.name}_s"] += s.duration
        for key, value in s.attrs.items():
            m[key] += value
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    # cli.main minus the library calls its split-out twin made (the draw
    # replay is extra work, not part of the CLI call)
    split_calls = sum(
        c.duration
        for s in spans
        if s.name == "cli.split"
        for c in children[s.id]
        if c.name != "sampling.draw"
    )
    m["cli.glue_s"] = m["cli.main_s"] - split_calls if m["cli.main_s"] else 0.0
    for s in spans:
        if s.name in ("urn.simulate", "towers.simulate"):
            draws = sum(c.duration for c in children[s.parent] if c.name == "sampling.draw")
            m[s.name.replace("simulate", "cascade_s")] += s.duration - draws
    raw = m["sampling.raw_examined"]
    m["sampling.accept_ratio"] = m["sampling.draws"] / raw if raw else 0.0
    m["sampling.raw_bytes"] = 8 * raw
    m["trace.overhead_s"] = m["op.split_s"] - m["sampling.draw_s"] - m["op.entry_s"]
    return m


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    ops = defaultdict(list)
    for s in spans:
        ops[s.op].append(s)
    per_op = [op_layers(group) for group in ops.values()]
    return {name: statistics.median(m.get(name, 0.0) for m in per_op) for name in PER_LAYER}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, ops: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "avalanches").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


_PROBE_ARRAY = np.random.default_rng(0).integers(0, 1 << 30, 200_000)


def probe() -> float:
    """Seconds for a fixed mix of interpreter, numpy and big-integer work.

    The machine's speed drifts by up to 1.5x over seconds to minutes, more
    than the bounds allow.  Scaling each timing by PROBE_REF_S / probe() run
    next to it removes the drift while keeping a change in the library's own
    cost.  Raw wall times are printed alongside.
    """
    t0 = perf_counter()
    sum(range(100_000))
    np.sort(_PROBE_ARRAY)
    (Fraction(3, 7) ** 3000 + Fraction(1, 9)) * Fraction(3, 7) ** 3000
    return perf_counter() - t0


def set_up(workload, workdir: Path, args):
    """Import the package and build the workload; returns (lib, workload, seconds)."""
    t0 = perf_counter()
    lib = load_library()
    wl = workload(lib, workdir, args.seed, args.tiny)
    return lib, wl, perf_counter() - t0


def measure(wl, args, min_ops: int, do_op) -> tuple[int, dict[int, list[str]]]:
    """Run ops until --seconds have passed and min_ops are done; returns (ops, failures)."""
    failures: dict[int, list[str]] = {}
    start = perf_counter()
    index = 0
    while True:
        op = wl.next_op()
        try:
            reasons = do_op(index, op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            reasons = [f"{type(exc).__name__}: {exc}"]
        if reasons:
            failures[index] = reasons
        index += 1
        elapsed = perf_counter() - start
        if (elapsed >= args.seconds and index >= min_ops) or elapsed >= max(MAX_MEASURE_S, args.seconds):
            break
    for i, reasons in wl.late_failures().items():
        failures.setdefault(i, []).extend(reasons)
    return index, failures


def run_untraced(workload, workdir: Path, args) -> tuple[int, dict, dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        scale = PROBE_REF_S / probe()
        lib, wl, seconds = set_up(workload, workdir, args)
        setups.append(seconds * scale)
    latencies: list[float] = []
    probes: list[float] = []

    def do_op(index, op):
        probes.append(probe())
        t0 = perf_counter()
        try:
            result = wl.run(op, lib.cli.main)
        finally:
            latencies.append(perf_counter() - t0)
        return wl.check(index, op, result)

    ops, failures = measure(wl, args, TINY_MIN_OPS if args.tiny else MIN_OPS, do_op)
    # the machine's speed drifts over seconds, so half the set-ups run after the ops
    for _ in range(SETUP_REPEATS // 2):
        scale = PROBE_REF_S / probe()
        setups.append(set_up(workload, workdir, args)[2] * scale)
    scaled = [
        lat * PROBE_REF_S / statistics.median(probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1])
        for i, lat in enumerate(latencies)
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(scaled),
        "op_p90_s": statistics.quantiles(scaled, n=10)[-1],
        "ops_per_s": (ops - len(failures)) / sum(scaled),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - len(failures) / ops,
    }
    wall = {
        "op_p50_wall_s": statistics.median(latencies),
        "op_p90_wall_s": statistics.quantiles(latencies, n=10)[-1],
        "probe_s": statistics.median(probes),
    }
    return ops, failures, metrics, wall


def run_traced(workload, workdir: Path, args) -> tuple[int, dict, dict, Tracer]:
    lib, wl, _ = set_up(workload, workdir, args)
    tr = Tracer()

    def traced_main(argv):
        with tr.span("cli.main"):
            return lib.cli.main(argv)

    def do_op(index, op):
        tr.op = index
        out = {}

        def entry():
            with tr.span("op.entry"):
                out["entry"] = wl.run(op, traced_main)

        def split():
            with tr.span("op.split"):
                out["split"] = wl.split(op, tr)

        # alternate which pass goes first, so warm caches favour neither
        for step in (split, entry) if index % 2 else (entry, split):
            step()
        reasons = wl.check(index, op, out["entry"])
        return reasons + wl.reproduced(op, out["entry"], out["split"])

    ops, failures = measure(wl, args, TINY_MIN_OPS if args.tiny else MIN_TRACED_OPS, do_op)
    return ops, failures, layer_metrics(tr.spans), tr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small ops, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "avalanches" / "__init__.py").is_file():
        print(f"error: no avalanches package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            ops, failures, metrics, tr = run_traced(workload, workdir, args)
            units, wall = PER_LAYER, {}
        else:
            ops, failures, metrics, wall = run_untraced(workload, workdir, args)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args, ops)
    if args.trace:
        tr.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", prov)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"metric error_rate {len(failures) / ops!r} ratio")
    for name, value in wall.items():
        print(f"info {name} {value!r} s")
    for index, reasons in list(failures.items())[:10]:
        print(f"failed op {index}: {'; '.join(reasons)}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": ops,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
