"""divcert benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The engine is imported from ``src/divcert``
beside this directory; nothing is installed or built.

--trace 0 measures end-to-end metrics with tracing off:

    setup_s        median time from spawning a fresh interpreter to "engine
                   ready": the workload's imports plus one untimed warm-up
                   input; eleven samples spread over the run
    points_per_s   points (verdicts, or records for cli-session) completed
                   per second of engine time: all points over the summed
                   latencies of all timed calls
    point_p50_ms   median latency of one timed engine call
    point_p90_ms   90th percentile of the same samples (count printed)
    peak_rss_mb    ru_maxrss of this process after the timed rounds

--trace 1 wraps the public functions of core, divisibility, qpoly, the
kernels, qdivisibility and cli at the attributes their callers look up,
runs the workload's fixed number of seeded rounds traced (the same work on
every commit, however fast the engine is, so counts and self times compare),
replays them untraced to measure the tracing overhead, writes the spans to
perfbench/out/spans-<workload>.tsv and prints the per-layer metrics.

Either way every output goes through the workload's correctness gate after
the timed region; failed_frac (wrong verdicts, exceptions and exhausted
budgets over points attempted) is printed, and the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 only when every output passed the gate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import types
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
ENGINE_MODULES = ("core", "divisibility", "qpoly", "qdivisibility", "cli")

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "point_p50_ms": "ms",
    "point_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.self_s": "s",
    "core.primes_up_to.calls": "count",
    "core.primes_up_to.self_s": "s",
    "core.primes_up_to.distinct_limits": "count",
    "core.is_prime.calls": "count",
    "core.is_prime.self_s": "s",
    "core.is_prime.per_valuation": "ratio",
    "core.binom_valuation.calls": "count",
    "core.binom_valuation.self_s": "s",
    "core.legendre_valuation_factorial.self_s": "s",
    "core.divides_binomial.self_s": "s",
    "core.factorize.calls": "count",
    "core.factorize.self_s": "s",
    "core.totient.calls": "count",
    "divisibility.self_s": "s",
    "divisibility.valuations_per_witness": "ratio",
    "qpoly.self_s": "s",
    "qpoly.expr_factorization.calls": "count",
    "qpoly.expr_factorization.self_s": "s",
    "qpoly.CycloFactorization.degree.self_s": "s",
    "qpoly.expand_expr.calls": "count",
    "qpoly.expand_expr.self_s": "s",
    "qpoly.expand_expr.degree_sum": "count",
    "qpoly.expand_expr.peak_to_final": "ratio",
    "qpoly.expand_expr.max_coeff_bits": "bits",
    "qpoly.expansions_per_verdict": "ratio",
    "qpoly.is_nonneg.self_s": "s",
    "kernels.mul.calls": "count",
    "kernels.div.calls": "count",
    "kernels.self_s": "s",
    "kernels.coeffs_touched": "count",
    "kernels.coeffs_per_s": "1/s",
    "kernels.bytes_moved_computed": "bytes",
    "qdivisibility.self_s": "s",
    "qdivisibility.verdicts": "count",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.checkpoint_bytes_read": "bytes",
    "cli.resumed_ratio": "ratio",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.observer_s": "s",
    "trace.accounted_frac": "ratio",
    "trace.spans": "count",
    "trace.calls": "count",
}


class Context:
    """Per-round scratch directory and the run's counters."""

    def __init__(self, scratch: str, counters: Counter):
        self.scratch = scratch
        self.counters = counters
        self.files: list[str] = []


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_engine():
    """Put src/ first on sys.path and check divcert comes from there."""
    if not (SRC / "divcert" / "__init__.py").is_file():
        fail(f"engine sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import divcert
    if Path(divcert.__file__).resolve().parent != SRC / "divcert":
        fail(f"divcert imported from {divcert.__file__}, not from {SRC}")
    return divcert


def setup_code(workload) -> str:
    """Code for a fresh interpreter that gets the engine ready."""
    return "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        workload.imports,
        workload.warmup.format(out=str(OUT / "warmup.json")),
        "print('ready', flush=True)",
    ])


def time_setup(code: str) -> float:
    """Seconds from spawning a fresh interpreter to its 'ready' line."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != "ready":
        fail("set-up interpreter failed")
    return elapsed


@dataclass
class RunLog:
    outcomes: list = field(default_factory=list)   # (point, s, output, error)
    rounds: list = field(default_factory=list)     # the point lists played
    setup: list = field(default_factory=list)      # seconds to engine ready
    counters: Counter = field(default_factory=Counter)
    wall: float = 0.0


def run_rounds(workload, engine, rounds, seconds, tracer=None, spawn=None):
    """Run rounds until seconds have passed (or all of a given list).

    With spawn (the code of a set-up interpreter), SETUP_SAMPLES fresh
    interpreters are timed between rounds, spread over the run.
    """
    log = RunLog()
    start = perf_counter()

    for points in rounds:
        scratch = tempfile.mkdtemp(dir=OUT)
        ctx = Context(scratch, log.counters)
        for point in points:
            x = workload.prepare(point, ctx) if workload.prepare else point
            if tracer is not None:
                tracer.point_id = len(log.outcomes)
            t0 = perf_counter()
            try:
                result, error = workload.call(engine, x), None
            except (Exception, SystemExit) as exc:
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            if error is None and workload.finish:
                result = workload.finish(point, ctx, result)
            log.outcomes.append((point, elapsed, result, error))
        shutil.rmtree(scratch)
        log.rounds.append(points)
        if spawn and len(log.setup) < SETUP_SAMPLES and (
                perf_counter() - start >= len(log.setup) * seconds / SETUP_SAMPLES):
            log.setup.append(time_setup(spawn))
        if seconds is not None and perf_counter() - start >= seconds:
            break
    while spawn and len(log.setup) < SETUP_SAMPLES:
        log.setup.append(time_setup(spawn))
    log.wall = perf_counter() - start
    return log


def gate(workload, outcomes) -> tuple[int, int, list[str]]:
    """Check every output; returns (attempted, failed, first problems)."""
    attempted = failed = 0
    problems = []
    for point, _, output, error in outcomes:
        attempted += point.weight
        if error is None:
            try:
                if workload.check(point, output):
                    continue
                error = "wrong verdict"
            except Exception as exc:  # a malformed output is a wrong verdict
                error = f"gate raised {type(exc).__name__}: {exc}"
        failed += point.weight
        if len(problems) < 5:
            problems.append(f"{point.kind}{point.args}: {error}")
    return attempted, failed, problems


def end_to_end(workload, engine, rng, seconds):
    code = setup_code(workload)
    time_setup(code)  # fills the bytecode and file caches, as any earlier run would
    log = run_rounds(workload, engine, workload.rounds(rng), seconds, spawn=code)
    latencies = [o[1] for o in log.outcomes]
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": statistics.median(log.setup),
        "points_per_s": sum(o[0].weight for o in log.outcomes) / sum(latencies),
        "point_p50_ms": deciles[4] * 1e3,
        "point_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"{len(log.rounds)} rounds in {log.wall:.2f} s wall; p50 and p90 "
             f"over {len(latencies)} timed calls; setup_s over "
             f"{len(log.setup)} fresh interpreters"]
    return log.outcomes, metrics, END_TO_END, notes


# ---------------------------------------------------------------------------
# Traced run.

def _observe_limit(t, args, kwargs, result):
    t.values["limits"].add(args[0] if args else kwargs["limit"])


def _observe_witness(t, args, kwargs, result):
    t.counters["witnesses"] += 1


def _enter_valuation(t):
    if t.parent_name() == "divisibility.negative_valuation_witness":
        t.counters["witness_valuations"] += 1


def _observe_kernel(t, args, kwargs, result):
    c = t.counters
    n_in, n_out = len(args[0]), len(result)
    c["coeffs"] += n_in + n_out
    if n_out > c["peak_len"]:
        c["peak_len"] = n_out
    # Computed, not measured: each coefficient read or written costs a list
    # pointer plus an int object sized for the widest of 16 sampled outputs.
    step = max(1, n_out // 16)
    bits = max((abs(result[i]).bit_length() for i in range(0, n_out, step)),
               default=0)
    c["bytes"] += (n_in + n_out) * (8 + 24 + 4 * max(1, -(-bits // 30)))


def _enter_expansion(t):
    t.counters["peak_len"] = 0


def _observe_expansion(t, args, kwargs, result):
    c = t.counters
    c["degree_sum"] += result.degree
    c["peak_sum"] += c["peak_len"]
    c["final_sum"] += len(result.coeffs)
    bits = max((abs(x).bit_length() for x in result.coeffs), default=0)
    if bits > c["max_bits"]:
        c["max_bits"] = bits


def _observe_verdicts(t, args, kwargs, result):
    parent = t.parent_name()
    if parent is not None and parent.startswith("qdivisibility."):
        return
    if isinstance(result, list):
        t.counters["verdicts"] += sum(type(v).__name__ == "QFamilyVerdict"
                                      for v in result)
    else:
        t.counters["verdicts"] += 1


def install(tracer, mods) -> None:
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "divcert" or name.startswith("divcert.")]
    qpoly, qd = mods.qpoly, mods.qdivisibility
    tracer.patch_public(mods.core, "core", owners, {
        "primes_up_to": (_observe_limit, None),
        "binom_valuation": (None, _enter_valuation)})
    tracer.patch_public(mods.divisibility, "divisibility", owners,
                        {"negative_valuation_witness": (_observe_witness, None)})
    tracer.patch(owners, qpoly.mul_one_minus_qt, "kernels.mul", _observe_kernel)
    tracer.patch(owners, qpoly.div_one_minus_qt, "kernels.div", _observe_kernel)
    tracer.patch([qpoly.CycloFactorization], qpoly.CycloFactorization.degree,
                 "qpoly.CycloFactorization.degree")
    tracer.patch_public(qpoly, "qpoly", owners,
                        {"expand_expr": (_observe_expansion, _enter_expansion)})
    tracer.patch_public(qd, "qdivisibility", owners,
                        {name: (_observe_verdicts, None) for name in vars(qd)})
    tracer.patch_public(mods.cli, "cli", owners)


def layer_metrics(t, log, untraced_wall):
    c, calls, counters, wall = t.counters, t.calls, log.counters, log.wall
    harness = wall - sum(o[1] for o in log.outcomes)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "core.primes_up_to.distinct_limits": len(t.values["limits"]),
        "core.is_prime.per_valuation": ratio(calls["core.is_prime"],
                                             calls["core.binom_valuation"]),
        "divisibility.valuations_per_witness": ratio(c["witness_valuations"],
                                                     c["witnesses"]),
        "qpoly.expand_expr.degree_sum": c["degree_sum"],
        "qpoly.expand_expr.peak_to_final": ratio(c["peak_sum"], c["final_sum"]),
        "qpoly.expand_expr.max_coeff_bits": c["max_bits"],
        "qpoly.expansions_per_verdict": ratio(calls["qpoly.expand_expr"],
                                              c["verdicts"]),
        "kernels.coeffs_touched": c["coeffs"],
        "kernels.coeffs_per_s": ratio(c["coeffs"], t.layer_self_s("kernels")),
        "kernels.bytes_moved_computed": c["bytes"],
        "qdivisibility.verdicts": c["verdicts"],
        "cli.bytes_written": counters["cli.bytes_written"],
        "cli.checkpoint_bytes_read": counters["cli.checkpoint_bytes_read"],
        "cli.resumed_ratio": ratio(counters["cli.resumed_records"],
                                   counters["cli.resumed_run_records"]),
        "harness.self_s": harness,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.observer_s": t.observer_s,
        "trace.accounted_frac":
            (sum(t.self_s.values()) + t.observer_s + harness) / wall,
        "trace.spans": t.spans,
        "trace.calls": len(log.outcomes),
    }
    for name in PER_LAYER:
        layer, _, rest = name.partition(".")
        if name in m:
            continue
        if rest == "self_s":
            m[name] = t.layer_self_s(layer)
        elif name.endswith(".calls"):
            m[name] = calls[name[:-len(".calls")]]
        else:
            m[name] = t.self_s.get(name[:-len(".self_s")], 0.0)
    return m


def traced(workload, engine, rng, seconds):
    """Trace workload.trace_rounds rounds; seconds is not used."""
    rounds = list(itertools.islice(workload.rounds(rng), workload.trace_rounds))
    tracer = spans.Tracer()
    install(tracer, engine)
    t0 = tracer.clock()
    try:
        log = run_rounds(workload, engine, rounds, None, tracer)
    finally:
        tracer.restore()
    replay = run_rounds(workload, engine, log.rounds, None)
    tracer.write(str(OUT / f"spans-{workload.name}.tsv"), t0)
    metrics = layer_metrics(tracer, log, replay.wall)
    backend = sys.modules["divcert"].KERNEL_BACKEND
    notes = [f"{len(log.rounds)} rounds traced and replayed; kernel backend "
             f"{backend} (kernels.coeffs_per_s is for this backend)",
             f"tracing overhead {log.wall - replay.wall:.3f} s on "
             f"{replay.wall:.3f} s untraced; spans kept "
             f"{len(tracer.kept)} of {tracer.spans}"]
    return log.outcomes + replay.outcomes, metrics, PER_LAYER, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    divcert = load_engine()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    scope = {}
    with contextlib.redirect_stderr(io.StringIO()):
        exec(workload.imports, scope)
        exec(workload.warmup.format(out=str(OUT / "warmup.json")), scope)
    if args.trace:
        for name in ENGINE_MODULES:
            __import__(f"divcert.{name}")
    engine = types.SimpleNamespace(**{
        name: sys.modules[f"divcert.{name}"] for name in ENGINE_MODULES
        if f"divcert.{name}" in sys.modules})
    rng = random.Random(f"{args.workload}:{args.seed}")

    measure = traced if args.trace else end_to_end
    outcomes, metrics, units, notes = measure(workload, engine, rng, args.seconds)
    attempted, failed, problems = gate(workload, outcomes)

    print(f"workload {args.workload}  seed {args.seed}  python "
          f"{sys.version.split()[0]}  kernels {divcert.KERNEL_BACKEND}")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':<44} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} points)")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
