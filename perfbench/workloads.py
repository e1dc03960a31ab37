"""The three benchmark workloads: seeded inputs, how a point runs, and the
correctness gate each output must pass.

A workload yields rounds.  Every round has the same mix of input strata, so
the work in a run does not swing with the seed, and a run always ends on a
round boundary.  Points call the engine through module attributes looked up
at call time, so a traced run sees the same calls through its wrappers.

The gates recompute what they check with the benchmark's own arithmetic
(carry counts, closed-form degrees, committed digests); they never ask the
engine to confirm its own answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass


@dataclass
class Point:
    kind: str
    args: tuple
    # Verdicts or records the call yields.
    weight: int = 1


@dataclass
class Workload:
    """How one workload makes, runs and checks its points.

    rounds(rng) yields lists of Points.  call(engine, x) is the timed engine
    call, where x is prepare(point, ctx) when prepare is set and the point
    otherwise; finish(point, ctx, result) turns the result into the output
    the gate checks, outside the timed call.  check(point, output) is the
    gate.  A traced run plays the first trace_rounds rounds.
    """

    name: str
    imports: str
    warmup: str
    rounds: object
    call: object
    check: object
    trace_rounds: int
    prepare: object = None
    finish: object = None


# ---------------------------------------------------------------------------
# int-witness: divisibility.negative_valuation_witness over (a, b) in [1,30]^2.

P_CAP = 10**5
# The pairs of [1,30]^2 whose search exhausts every prime at e = 1 and needs
# e >= 2; each costs about 100x an easy pair, so every round holds exactly
# one, and the 120 easy pairs beside it keep it to about half the time.
HARD_PAIRS = ((2, 2), (2, 7), (2, 19), (7, 2), (8, 10), (10, 8), (11, 22),
              (14, 19), (14, 22), (19, 2), (19, 14), (22, 11), (22, 14))
EASY_PER_ROUND = 120


def _cycle(rng: random.Random, pool: list):
    """Draw from pool without replacement, reshuffling when it runs out."""
    while True:
        items = list(pool)
        rng.shuffle(items)
        yield from items


def _int_witness_rounds(rng):
    easy_pool = [(a, b) for a in range(1, 31) for b in range(1, 31)
                 if (a, b) not in HARD_PAIRS]
    hard, easy = _cycle(rng, list(HARD_PAIRS)), _cycle(rng, easy_pool)
    while True:
        points = [Point("witness", next(easy)) for _ in range(EASY_PER_ROUND)]
        points.insert(rng.randrange(EASY_PER_ROUND + 1),
                      Point("witness", next(hard)))
        yield points


def _run_witness(engine, point):
    a, b = point.args
    return engine.divisibility.negative_valuation_witness(a, b, p_cap=P_CAP)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _carries(x: int, y: int, p: int) -> int:
    """Carries when adding x and y in base p (Kummer: v_p(binom(x+y, x)))."""
    count = carry = 0
    while x or y or carry:
        x, dx = divmod(x, p)
        y, dy = divmod(y, p)
        carry = 1 if dx + dy + carry >= p else 0
        count += carry
    return count


def _exact_power(m: int, p: int) -> int:
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def check_witness(point, w) -> bool:
    a, b = point.args
    if (w.a, w.b) != (a, b) or w.n < 1:
        return False
    if not (w.p <= P_CAP and w.p % 3 == 2 and _is_prime(w.p)):
        return False
    if _exact_power(3 * w.n - 1, w.p) != w.e:
        return False
    valuation = _carries(a * w.n, b * w.n, w.p) - w.e
    return valuation < 0 and w.valuation == valuation


# ---------------------------------------------------------------------------
# q-grid: thousands of short expansions.

def _strata(points, cost, count):
    """Split points, ordered by a cost proxy, into count equal strata."""
    ranked = sorted(points, key=cost)
    size = len(ranked) // count
    return [ranked[i * size:(i + 1) * size if i < count - 1 else None]
            for i in range(count)]


# Expansion cost grows like k * degree for a q-binomial [m, k]_q.
Q_GRID_STRATA = (
    ("gcd-quotient", [(a, b) for a in range(1, 61) for b in range(1, 61)],
     lambda ab: ab[0] * ab[0] * ab[1], 8),
    ("gcd-central", [(n, k) for n in range(1, 41) for k in range(n + 1)],
     lambda nk: (nk[0] - nk[1]) ** 2 * (nk[0] + nk[1]), 2),
    ("gcd-catalan", [(a, b, n) for a in range(1, 9) for b in range(1, 9)
                     for n in range(1, 9)],
     lambda abn: (abn[0] * abn[2]) ** 2 * (abn[1] * abn[2] + 1), 2),
)


def _q_grid_rounds(rng):
    draws = [(kind, _cycle(rng, stratum))
             for kind, points, cost, count in Q_GRID_STRATA
             for stratum in _strata(points, cost, count)]
    while True:
        points = [Point(kind, next(draw)) for kind, draw in draws]
        rng.shuffle(points)
        yield points


def _run_q_grid(engine, point):
    qd = engine.qdivisibility
    if point.kind == "gcd-quotient":
        return qd.gcd_binomial_quotient_check(*point.args)
    if point.kind == "gcd-central":
        return qd.verify_gcd_central_quotient(*point.args)
    return qd.verify_gcd_catalan_family(*point.args)


def gcd_quotient_degree(a: int, b: int) -> int:
    """Degree of (1-q^{gcd(a,b)})/(1-q^{a+b}) [a+b, a]_q."""
    return a * b + math.gcd(a, b) - (a + b)


def check_q_grid(point, v) -> bool:
    if point.kind == "gcd-quotient":
        a, b = point.args
        params, degree = (("a", a), ("b", b)), gcd_quotient_degree(a, b)
    elif point.kind == "gcd-central":
        n, k = point.args
        params = (("n", n), ("k", k))
        degree = (n - k) * (n + k) + math.gcd(k, n) - n
    else:
        a, b, n = point.args
        params = (("a", a), ("b", b), ("n", n))
        degree = gcd_quotient_degree(a * n, b * n + 1)
    return (v.family_id == point.kind and v.params == params and v.polynomial
            and v.nonneg is True and not v.negative_positions
            and v.degree == degree)


# ---------------------------------------------------------------------------
# cli-session: cli.main in-process, one session per round.

THM0 = ["verify", "thm0", "--a-max", "10", "--b-max", "10", "--n-max", "10"]
THM0_RECORDS = 10 * 10 * 10
THM0_DIGEST = "eea66f30f60eed1aaec2bf1d9007ef678a261b492b44aea58106d6085456e67e"
# Each step: argv, records in its --output file (grid points plus the
# summary), and the sha256 of that file at this engine version.  Every call
# takes 10-200 ms, short enough that argparse, JSON and file I/O are a real
# share of it.  thm0-resumed is the cheapest step and thm4 the dearest; thm0,
# fab and thm3 cost about the same.  So p50 falls in the middle of those
# three and p90 in the middle of thm4, never in a gap between step costs,
# where the host's slow phases would move it most.
CLI_STEPS = {
    "thm0": (THM0, THM0_RECORDS + 1, THM0_DIGEST),
    "thm0-resumed": (THM0, THM0_RECORDS + 1, THM0_DIGEST),
    "thm4": (["verify", "thm4", "--n-max", "8"], 9,
             "cc9bd2d239f891286987fce71e0f8525a3f9a7607c31ec01598ecd4fcecfe76e"),
    "fab": (["fab", "7", "36"], 2,
            "109626d0932bc5c7965c57de72cadfeb29b079abc742102db19e2b98ce9270d3"),
    "thm3": (["verify", "thm3", "--n-max", "50"], 51,
             "cb45530793b96c5949e841804cc4c43c4da978d9094585d5b7739e26fbb77e26"),
}


def _cli_rounds(rng):
    # The resume point is drawn from the middle tenth of the grid, mirrored
    # in alternate sessions, so the recomputed share stays near one half.
    sign = 1
    while True:
        keep = THM0_RECORDS // 2 + sign * rng.randrange(THM0_RECORDS // 20)
        sign = -sign
        yield [Point("cli", (step, keep), records)
               for step, (_, records, _) in CLI_STEPS.items()]


def _prepare_cli(point, ctx):
    step, keep = point.args
    output = os.path.join(ctx.scratch, step + ".jsonl")
    argv = CLI_STEPS[step][0] + ["--output", output]
    checkpoint = None
    if step == "thm0":
        checkpoint = os.path.join(ctx.scratch, "thm0.ckpt")
    elif step == "thm0-resumed":
        # Header line plus the first keep records of the full checkpoint.
        checkpoint = os.path.join(ctx.scratch, "resumed.ckpt")
        with open(os.path.join(ctx.scratch, "thm0.ckpt"), "rb") as src:
            lines = src.readlines()[:keep + 1]
        with open(checkpoint, "wb") as dst:
            dst.writelines(lines)
        read = os.path.getsize(checkpoint)
        ctx.counters["cli.checkpoint_bytes_read"] += read
        # The cli appends to this file; only the appended bytes are its own.
        ctx.counters["cli.bytes_written"] -= read
        ctx.counters["cli.resumed_records"] += keep
        ctx.counters["cli.resumed_run_records"] += THM0_RECORDS
    if checkpoint:
        argv += ["--checkpoint", checkpoint]
    ctx.files = [output] + ([checkpoint] if checkpoint else [])
    return argv


def _call_cli(engine, argv):
    with contextlib.redirect_stderr(io.StringIO()):
        return engine.cli.main(argv)


def _finish_cli(point, ctx, code):
    ctx.counters["cli.bytes_written"] += sum(map(os.path.getsize, ctx.files))
    with open(ctx.files[0], "rb") as fh:
        return code, hashlib.sha256(fh.read()).hexdigest()


def check_cli(point, out) -> bool:
    code, digest = out
    return code == 0 and digest == CLI_STEPS[point.args[0]][2]


# ---------------------------------------------------------------------------

# Why each workload exists, and which layers it loads, is recorded in
# BENCHMARK.json beside the workload names.
WORKLOADS = {
    "int-witness": Workload(
        "int-witness",
        "from divcert import divisibility",
        "divisibility.negative_valuation_witness(31, 1, p_cap=10**5)",
        _int_witness_rounds, _run_witness, check_witness,
        trace_rounds=len(HARD_PAIRS)),
    "q-grid": Workload(
        "q-grid",
        "from divcert import qdivisibility",
        "qdivisibility.gcd_binomial_quotient_check(61, 2)",
        _q_grid_rounds, _run_q_grid, check_q_grid, trace_rounds=200),
    "cli-session": Workload(
        "cli-session",
        "from divcert import cli",
        "cli.main(['qbinom', '6', '3', '--exponents', '--output', {out!r}])",
        _cli_rounds, _call_cli, check_cli, trace_rounds=40,
        prepare=_prepare_cli, finish=_finish_cli),
}
