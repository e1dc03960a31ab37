"""Command-line surface: subcommands fab, verify, conj, primes, qbinom, theta.

Output is line-delimited JSON: one record per grid point (stable key order)
followed by a summary record; --table renders the same records for humans.
Long grid runs can be checkpointed to an append-only log and resumed; a
resumed run produces byte-identical records to an uninterrupted one, so
wall-clock timing is reported on stderr rather than inside the records.

Exit codes: 0 success / all expected verdicts true, 2 inconclusive or
exhausted search, 3 partial results due to a budget, 64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import __version__, core, divisibility, qdivisibility, qpoly
from .errors import BudgetExceededError, SearchExhaustedError

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_PARTIAL = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Encoding is stateless per call, so one encoder serves every record.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _record_dumps(record: dict) -> str:
    return _ENCODER.encode(record)


def _fingerprint(command: str, parameters: dict, budget_degree: int) -> str:
    """Identifies the question a checkpoint answers.  The degree budget is
    part of it: a record expanded under one budget may read nonneg null
    under a smaller one."""
    blob = _record_dumps({"command": command, "parameters": parameters,
                          "engine_version": __version__,
                          "budget_degree": budget_degree})
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Grid workers (module level so they pickle for the process pool).

def _w_thm0(point):
    a, b, n = point
    return {"a": a, "b": b, "n": n,
            "ok": divisibility.verify_reduced_modulus(a, b, n)}


def _w_thm3(point):
    (n,) = point
    v = divisibility.verify_congruence_families(n)
    return {"n": n, "ok": v.all_ok,
            "checks": [{"label": c.label, "ok": c.ok} for c in v.checks]}


def _w_thm4(point, expand=True):
    (n,) = point
    verdicts = qdivisibility.verify_q_families(n, expand_coefficients=expand)
    families = [{"family": v.family_id, "polynomial": v.polynomial,
                 "nonneg": v.nonneg, "degree": v.degree,
                 "negative_positions": list(v.negative_positions)}
                for v in verdicts]
    # The composite-denominator family asserts polynomiality only.
    ok = all(v.polynomial and v.nonneg is not False for v in verdicts)
    partial = expand and any(
        v.polynomial and v.nonneg is None for v in verdicts[:-1])
    return {"n": n, "ok": ok, "partial": partial, "families": families}


def _w_thm_kn(point):
    n, k = point
    v = qdivisibility.verify_gcd_central_quotient(n, k)
    return {"n": n, "k": k, "ok": bool(v.polynomial and v.nonneg),
            "degree": v.degree}


def _w_andrews(point):
    a, b = point
    v = qdivisibility.gcd_binomial_quotient_check(a, b)
    return {"a": a, "b": b, "ok": bool(v.polynomial and v.nonneg),
            "degree": v.degree}


def _w_anbn(point):
    a, b, n = point
    v = qdivisibility.verify_gcd_catalan_family(a, b, n)
    return {"a": a, "b": b, "n": n,
            "ok": bool(v.polynomial and v.nonneg), "degree": v.degree}


def _w_decomposition(point):
    a, b, n = point
    return {"a": a, "b": b, "n": n,
            "ok": divisibility.verify_quotient_decomposition(a, b, n)}


def _w_conj2(point, p_cap=divisibility.CONJ2_PRIME_CAP_DEFAULT):
    a, b = point
    try:
        w = divisibility.negative_valuation_witness(a, b, p_cap)
    except SearchExhaustedError:
        return {"a": a, "b": b, "found": False, "p_cap": p_cap}
    return {"a": a, "b": b, "found": True, "p": w.p, "n": w.n, "e": w.e,
            "valuation": w.valuation}


def _w_oddp(point, p=3, n_max=100):
    a, b = point
    n = divisibility.first_failing_n(p, a, b, n_max)
    return {"a": a, "b": b, "p": p, "first_failing_n": n,
            "survives": n is None}


def _w_oddp2(point, m=1, n_max=50):
    a, b = point
    survives = divisibility._pair_survives(m, a, b, n_max)
    return {"a": a, "b": b, "m": m, "survives": survives}


def _w_c330(point):
    (n,) = point
    degree, negatives = qdivisibility.check_c330n88n(n)
    expected = qdivisibility.conjectured_pattern(n)
    return {"n": n, "degree": degree, "negatives": [list(t) for t in negatives],
            "matches_pattern": [list(t) for t in expected] ==
                               [list(t) for t in negatives]}


# ---------------------------------------------------------------------------
# Grid running, checkpointing, reporting.

def _map_ordered(worker, points, width):
    if width <= 1:
        for p in points:
            yield worker(p)
        return
    with ProcessPoolExecutor(max_workers=width) as ex:
        chunk = max(1, len(points) // (width * 8)) if points else 1
        yield from ex.map(worker, points, chunksize=chunk)


def _refuse(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _load_header(line: str, kind: str) -> dict:
    """The header of a checkpoint or cache; refuses a malformed or
    foreign one."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict):
        _refuse(f"{kind} header is not a JSON object")
    if header.get("engine_version") != __version__:
        _refuse(f"{kind} written by a different engine version")
    return header


def _load_checkpoint(path: str, command: str, parameters: dict,
                     budget_degree: int) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = _load_header(lines[0], "checkpoint")
    found = header.get("fingerprint")
    if found != _fingerprint(command, parameters, budget_degree):
        written = header.get("budget_degree")
        if found == _fingerprint(command, parameters, written):
            _refuse(f"checkpoint written under degree budget {written}, "
                    f"not {budget_degree}")
        _refuse("checkpoint belongs to a different command")
    records = []
    corrupt_from = None
    for i, line in enumerate(lines[1:], start=1):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            corrupt_from = i
            break
    if corrupt_from is not None:
        print(f"warning: dropping corrupt checkpoint tail at line {corrupt_from + 1}",
              file=sys.stderr)
        _atomic_write(path, "\n".join(lines[:corrupt_from]) + "\n")
    return records


def _atomic_write(path: str, content: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(content)
    os.replace(tmp, path)


@dataclass
class _Grid:
    """The records of a grid run, each with its JSON line."""

    records: list[dict]
    lines: list[str]
    partial: bool  # a budget ran out before the last point


def _run_grid(args, command: str, parameters: dict, points: list, worker) -> _Grid:
    """Run a grid, optionally resuming from and appending to a checkpoint.

    A budget running out ends the grid early; the records finished before
    it are kept (and checkpointed) and the grid is marked partial.
    """
    budget_degree = qpoly.degree_budget()
    records: list[dict] = []
    checkpoint = args.checkpoint
    fh = None
    if checkpoint:
        # A missing or empty file starts a fresh checkpoint.
        fresh = not os.path.exists(checkpoint) or not os.path.getsize(checkpoint)
        if not fresh:
            records = _load_checkpoint(checkpoint, command, parameters,
                                       budget_degree)
        fh = open(checkpoint, "a", encoding="utf-8")
        if fresh:
            fh.write(_record_dumps({
                "budget_degree": budget_degree,
                "engine_version": __version__,
                "fingerprint": _fingerprint(command, parameters, budget_degree),
            }) + "\n")
            fh.flush()
    lines = [_record_dumps(r) for r in records]
    partial = False
    try:
        for rec in _map_ordered(worker, points[len(records):], args.par):
            line = _record_dumps(rec)
            if fh:
                fh.write(line + "\n")
                fh.flush()
            records.append(rec)
            lines.append(line)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        partial = True
    finally:
        if fh:
            fh.close()
    return _Grid(records, lines, partial)


def _emit_grid(args, command: str, parameters: dict, grid: _Grid,
               summary_extra: dict, code: int) -> int:
    """Emit a grid's records and return code, or exit 3 if it was cut short."""
    if grid.partial:
        summary_extra = {**summary_extra, "partial": True}
        code = EXIT_PARTIAL
    _emit(args, command, parameters, grid.records, summary_extra, grid.lines)
    return code


def _emit(args, command: str, parameters: dict, records: list[dict],
          summary_extra: dict, lines: list[str] | None = None) -> None:
    """Report records (whose JSON lines may be given) and a summary."""
    summary = {"record": "summary", "command": command,
               "parameters": parameters, "engine_version": __version__,
               "record_count": len(records)}
    summary.update(summary_extra)
    if lines is None:
        lines = [_record_dumps(r) for r in records]
    lines = lines + [_record_dumps(summary)]
    output = args.output
    if output:
        _atomic_write(output, "\n".join(lines) + "\n")
        print(f"wrote {len(lines)} records to {output}", file=sys.stderr)
    elif args.table:
        _print_table(records, summary)
    else:
        for line in lines:
            print(line)


def _print_table(records: list[dict], summary: dict) -> None:
    if records:
        keys = sorted({k for r in records for k in r})
        print("\t".join(keys))
        for r in records:
            print("\t".join(_cell(r.get(k)) for k in keys))
    print("summary:", _record_dumps(summary))


def _cell(value) -> str:
    if isinstance(value, (dict, list)):
        return _record_dumps(value)
    return str(value)


# ---------------------------------------------------------------------------
# Subcommand implementations.

def _cmd_fab(args) -> int:
    params = {"a": args.a, "b": args.b, "n_cap": args.n_cap}
    cache = _FabCache(args.cache) if args.cache else None
    record = cache.get(params) if cache else None
    if record is None:
        result = divisibility.f_ab(args.a, args.b, n_cap=args.n_cap)
        info = divisibility.fab_bound(args.a, args.b)
        record = {"a": args.a, "b": args.b, "verdict": result.verdict,
                  "n": result.n, "n_max": result.n_max,
                  "bound": None if info is None else
                           {"p": info.p, "bound": info.bound, "s": info.s}}
        if cache:
            cache.put(params, record)
    _emit(args, "fab", params, [record], {"verdict": record["verdict"]})
    return EXIT_OK if record["verdict"] in ("found", "proven_zero") else EXIT_INCONCLUSIVE


class _FabCache:
    """Append-only log of fab results keyed on all of (a, b, n_cap).

    Each line after the versioned header is {"key": params, "record": record},
    so an entry answers only the exact parameters it was computed for.
    Refuses caches from another engine version.  A tail line that is not
    such an entry (a torn write, or a result stored without its n_cap) is
    dropped with a warning on load.
    """

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[tuple[int, int], dict] = {}
        if os.path.exists(path):
            self._load()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_record_dumps({"engine_version": __version__,
                                        "kind": "fab-cache"}) + "\n")

    def _load(self):
        with open(self.path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        _load_header(lines[0] if lines else "", "cache")
        good = [lines[0]]
        for line in lines[1:]:
            try:
                entry = json.loads(line)
                self.entries[_record_dumps(entry["key"])] = entry["record"]
            except (json.JSONDecodeError, KeyError, TypeError):
                print("warning: dropping corrupt cache tail", file=sys.stderr)
                break
            good.append(line)
        if len(good) != len(lines):
            _atomic_write(self.path, "\n".join(good) + "\n")

    def get(self, params: dict) -> dict | None:
        return self.entries.get(_record_dumps(params))

    def put(self, params: dict, record: dict) -> None:
        self.entries[_record_dumps(params)] = record
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(_record_dumps({"key": params, "record": record}) + "\n")


def _cmd_verify(args) -> int:
    n_max, a_max, b_max = args.n_max, args.a_max, args.b_max
    tid = args.theorem_id
    if tid == "thm0":
        points = [(a, b, n) for a in range(1, a_max + 1)
                  for b in range(1, b_max + 1) for n in range(1, n_max + 1)]
        worker = _w_thm0
    elif tid == "thm3":
        points = [(n,) for n in range(1, n_max + 1)]
        worker = _w_thm3
    elif tid == "thm4":
        points = [(n,) for n in range(1, n_max + 1)]
        worker = functools.partial(_w_thm4, expand=args.expand)
    elif tid == "thm_kn":
        points = [(n, k) for n in range(1, n_max + 1) for k in range(0, n + 1)]
        worker = _w_thm_kn
    elif tid == "andrews":
        points = [(a, b) for a in range(1, a_max + 1) for b in range(1, b_max + 1)]
        worker = _w_andrews
    elif tid == "anbn":
        points = [(a, b, n) for a in range(1, a_max + 1)
                  for b in range(1, b_max + 1) for n in range(1, n_max + 1)]
        worker = _w_anbn
    elif tid == "decomposition":
        points = [(a, b, n) for a in range(1, a_max + 1)
                  for b in range(1, b_max + 1) for n in range(1, n_max + 1)
                  if a * n >= 2]
        worker = _w_decomposition
    else:  # pragma: no cover - argparse choices guard this
        return EXIT_USAGE
    params = {"theorem_id": tid, "n_max": n_max, "a_max": a_max,
              "b_max": b_max, "expand": getattr(args, "expand", False)}
    grid = _run_grid(args, "verify", params, points, worker)
    all_ok = all(r.get("ok", False) for r in grid.records)
    partial = any(r.get("partial") for r in grid.records)
    code = (EXIT_PARTIAL if partial else
            EXIT_OK if all_ok else EXIT_INCONCLUSIVE)
    return _emit_grid(args, "verify", params, grid,
                      {"all_ok": all_ok, "partial": partial}, code)


def _cmd_conj(args) -> int:
    cid = args.conjecture_id
    if cid == "conj2witness":
        points = [(a, b) for a in range(1, args.a_max + 1)
                  for b in range(1, args.b_max + 1)]
        worker = functools.partial(_w_conj2, p_cap=args.p_cap)
        params = {"conjecture_id": cid, "a_max": args.a_max,
                  "b_max": args.b_max, "p_cap": args.p_cap}
        grid = _run_grid(args, "conj", params, points, worker)
        ok = all(r["found"] for r in grid.records)
        return _emit_grid(args, "conj", params, grid, {"all_found": ok},
                          EXIT_OK if ok else EXIT_INCONCLUSIVE)
    if cid == "oddp":
        points = [(a, b) for a in range(2, args.a_max + 1)
                  for b in range(1, min(args.b_max, a - 1) + 1)]
        worker = functools.partial(_w_oddp, p=args.p, n_max=args.n_max)
        params = {"conjecture_id": cid, "p": args.p, "a_max": args.a_max,
                  "b_max": args.b_max, "n_max": args.n_max}
        grid = _run_grid(args, "conj", params, points, worker)
        survivors = [r for r in grid.records if r["survives"]]
        return _emit_grid(args, "conj", params, grid,
                          {"survivor_count": len(survivors)},
                          EXIT_OK if not survivors else EXIT_INCONCLUSIVE)
    if cid == "oddp2":
        points = [(a, b) for a in range(1, args.a_max + 1)
                  for b in range(1, args.b_max + 1) if a * args.m > b]
        worker = functools.partial(_w_oddp2, m=args.m, n_max=args.n_max)
        params = {"conjecture_id": cid, "m": args.m, "a_max": args.a_max,
                  "b_max": args.b_max, "n_max": args.n_max}
        grid = _run_grid(args, "conj", params, points, worker)
        survivors = [[r["a"], r["b"]] for r in grid.records if r["survives"]]
        return _emit_grid(args, "conj", params, grid, {"survivors": survivors},
                          EXIT_OK if survivors else EXIT_INCONCLUSIVE)
    if cid == "c330n88n":
        ns = [args.n] if args.n else list(range(1, args.n_max + 1))
        points = [(n,) for n in ns]
        params = {"conjecture_id": cid, "n": args.n, "n_max": args.n_max}
        grid = _run_grid(args, "conj", params, points, _w_c330)
        ok = all(r["matches_pattern"] for r in grid.records)
        return _emit_grid(args, "conj", params, grid, {"all_match": ok},
                          EXIT_OK if ok else EXIT_INCONCLUSIVE)
    return EXIT_USAGE  # pragma: no cover


def _cmd_primes(args) -> int:
    params = {"lo": args.lo, "hi": args.hi}
    report = divisibility.prime_window_verify(args.lo, args.hi)
    records = [{"x": x, "witness_prime": p} for x, p in report.entries]
    records += [{"x": x, "witness_prime": None} for x in report.failures]
    records.sort(key=lambda r: r["x"])
    _emit(args, "primes", params, records,
          {"failures": list(report.failures)})
    return EXIT_OK if not report.failures else EXIT_INCONCLUSIVE


def _cmd_qbinom(args) -> int:
    params = {"m": args.m, "k": args.k, "exponents": args.exponents}
    if args.exponents:
        f = qpoly.qbinom_factorization(args.m, args.k)
        record = {"m": args.m, "k": args.k,
                  "exponents": {str(d): e for d, e in sorted(f.exponents.items())}}
    else:
        try:
            poly = qpoly.qbinom_poly(args.m, args.k)
        except BudgetExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARTIAL
        record = {"m": args.m, "k": args.k, "degree": poly.degree,
                  "coeffs": list(poly.coeffs)}
    _emit(args, "qbinom", params, [record], {})
    return EXIT_OK


def _cmd_theta(args) -> int:
    params = {"x": args.x}
    try:
        theta = divisibility.chebyshev_theta_3_2(args.x)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    record = {"x": theta.x, "theta": theta.value,
              "error_bound": theta.error_bound,
              "prime_count": theta.prime_count}
    _emit(args, "theta", params, [record], {})
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--table", action="store_true",
                        help="render records as a table instead of JSON lines")
    parser.add_argument("--output", help="write the report to a file")


def _add_grid(parser: argparse.ArgumentParser) -> None:
    """Options of the subcommands that run grids."""
    _add_common(parser)
    parser.add_argument("--par", type=int, default=1,
                        help="worker pool width (default 1)")
    parser.add_argument("--checkpoint",
                        help="append-only checkpoint log; resumable")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="divcert")
    parser.add_argument("--budget-degree", type=int,
                        help="expansion degree budget (DIVCERT_BUDGET_DEGREE)")
    parser.add_argument("--budget-prime", type=int,
                        help="sieve budget (DIVCERT_BUDGET_PRIME)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fab", help="first n with (bn+1) not dividing binom((a+b)n, an)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--n-cap", type=int, default=None)
    p.add_argument("--cache", help="append-only result cache file")
    _add_common(p)
    p.set_defaults(func=_cmd_fab)

    p = sub.add_parser("verify", help="grid-run a theorem verifier")
    p.add_argument("theorem_id",
                   choices=["thm0", "thm3", "thm4", "thm_kn", "andrews",
                            "anbn", "decomposition"])
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--a-max", type=int, default=10)
    p.add_argument("--b-max", type=int, default=10)
    p.add_argument("--expand", action="store_true",
                   help="also expand coefficients where budgets allow")
    _add_grid(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conj", help="conjecture explorers and witness searches")
    p.add_argument("conjecture_id",
                   choices=["conj2witness", "oddp", "oddp2", "c330n88n"])
    p.add_argument("--a-max", type=int, default=10)
    p.add_argument("--b-max", type=int, default=10)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--p-cap", type=int,
                   default=divisibility.CONJ2_PRIME_CAP_DEFAULT)
    _add_grid(p)
    p.set_defaults(func=_cmd_conj)

    p = sub.add_parser("primes",
                       help="witness primes == 2 (mod 3) in windows (x, 20x/19)")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_primes)

    p = sub.add_parser("qbinom", help="dump a Gaussian polynomial or exponent vector")
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--exponents", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_qbinom)

    p = sub.add_parser("theta", help="Chebyshev theta on the class 2 mod 3")
    p.add_argument("x", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_theta)
    return parser


# Parsing leaves no state in the parser, so a process builds it once.
_parser = functools.cache(build_parser)


@contextlib.contextmanager
def _budgets(args):
    """Export the budget options to the environment the engine (and any
    worker process) reads, for the duration of one call only."""
    saved = {}
    for var, value in (("DIVCERT_BUDGET_DEGREE", args.budget_degree),
                       ("DIVCERT_BUDGET_PRIME", args.budget_prime)):
        if value is not None:
            saved[var] = os.environ.get(var)
            os.environ[var] = str(value)
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    with _budgets(args):
        try:
            code = args.func(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    print(f"elapsed {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
