"""Command-line surface: subcommands fab, verify, conj, primes, qbinom, theta.

Output is line-delimited JSON: one record per grid point (stable key order)
followed by a summary record; --table renders the same records for humans.
Long grid runs can be checkpointed to an append-only log and resumed; a
resumed run produces byte-identical records to an uninterrupted one, so
wall-clock timing is reported on stderr rather than inside the records.

Exit codes: 0 success / all expected verdicts true, 2 inconclusive or
exhausted search, 3 partial results due to a budget, 64 usage error,
70 a failed internal cross-check, 74 a report or checkpoint that cannot
be read or written (an OSError, such as a missing directory or a closed
pipe).
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import time
from typing import Callable, NamedTuple

from . import __version__, core, divisibility, qdivisibility, qpoly
from .errors import BudgetExceededError, SearchExhaustedError

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_PARTIAL = 3
EXIT_USAGE = 64
EXIT_SOFTWARE = 70
EXIT_IOERR = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# The C encoder that json.dumps(record, sort_keys=True, separators=(",", ":"))
# builds for every call, built once: ASCII output, NaN allowed, and no
# circular-reference markers, since records are trees the CLI builds.
_ENCODE = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, True)


def _record_dumps(record: dict) -> str:
    return "".join(_ENCODE(record, 0))


def _fingerprint(command: str, parameters: dict, budget_degree: int) -> str:
    """Identifies the question a checkpoint answers.  The degree budget is
    part of it: a record expanded under one budget may read nonneg null
    under a smaller one.  SHA-256, so existing checkpoints still resume;
    hashlib is imported here because only checkpoints need it."""
    import hashlib

    blob = _record_dumps({"command": command, "parameters": parameters,
                          "engine_version": __version__,
                          "budget_degree": budget_degree})
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Grids.  Each claim that `verify` and `conj` check is a grid: points, each
# a dict of named coordinates; a worker (parameters, point) -> record, the
# point with its verdict, a boolean under the claim's `verdict` field; and a
# rule records -> (summary fields, exit code).  Every verify claim records
# the same options, reads `ok` and shares one rule.  Workers are module
# level, so they pickle for --par, and look engine functions up per call,
# so wrappers installed on the engine modules (tracers) see them.

_VERIFY_OPTIONS = ("n_max", "a_max", "b_max", "expand")


# The summary fields that say a claim holds at every point.
_CLAIM_FIELDS = ("all_ok", "all_found", "all_match")


def _verify_rule(records):
    all_ok = all(r.get("ok", False) for r in records)
    partial = any(r.get("partial") for r in records)
    # _cmd_grid turns a partial summary into exit 3.
    return ({"all_ok": all_ok, "partial": partial},
            EXIT_OK if all_ok else EXIT_INCONCLUSIVE)


class _Claim(NamedTuple):
    points: Callable[[dict], list[dict]]
    worker: Callable[[dict, dict], dict]
    options: tuple[str, ...] = _VERIFY_OPTIONS  # recorded as parameters
    rule: Callable[[list[dict]], tuple[dict, int]] = _verify_rule
    verdict: str = "ok"  # the boolean field of a record that `rule` reads


def _ab(params):
    return [{"a": a, "b": b} for a in range(1, params["a_max"] + 1)
            for b in range(1, params["b_max"] + 1)]


def _abn(params):
    return [{**ab, "n": n} for ab in _ab(params)
            for n in range(1, params["n_max"] + 1)]


def _ns(params):
    return [{"n": n} for n in range(1, params["n_max"] + 1)]


def _thm0(params, point):
    return {**point, "ok": divisibility.verify_reduced_modulus(**point)}


def _decomposition(params, point):
    return {**point, "ok": divisibility.verify_quotient_decomposition(**point)}


def _nonneg(point, v) -> dict:
    """The record of a quotient that must be a non-negative polynomial."""
    return {**point, "ok": bool(v.polynomial and v.nonneg), "degree": v.degree}


def _thm_kn(params, point):
    return _nonneg(point, qdivisibility.verify_gcd_central_quotient(**point))


def _andrews(params, point):
    return _nonneg(point, qdivisibility.gcd_binomial_quotient_check(**point))


def _anbn(params, point):
    return _nonneg(point, qdivisibility.verify_gcd_catalan_family(**point))


def _thm3(params, point):
    v = divisibility.verify_congruence_families(**point)
    return {**point, "ok": v.all_ok,
            "checks": [{"label": c.label, "ok": c.ok} for c in v.checks]}


def _thm4(params, point):
    expand = params["expand"]
    verdicts = qdivisibility.verify_q_families(**point, expand_coefficients=expand)
    families = [{"family": v.family_id, "polynomial": v.polynomial,
                 "nonneg": v.nonneg, "degree": v.degree,
                 "negative_positions": list(v.negative_positions)}
                for v in verdicts]
    # The composite-denominator family asserts polynomiality only.
    ok = all(v.polynomial and v.nonneg is not False for v in verdicts)
    partial = expand and any(
        v.polynomial and v.nonneg is None for v in verdicts[:-1])
    return {**point, "ok": ok, "partial": partial, "families": families}


def _conj2(params, point):
    p_cap = params["p_cap"]
    try:
        w = divisibility.negative_valuation_witness(**point, p_cap=p_cap)
    except SearchExhaustedError:
        return {**point, "found": False, "p_cap": p_cap}
    return {**point, "found": True, "p": w.p, "n": w.n, "e": w.e,
            "valuation": w.valuation}


def _oddp(params, point):
    p = params["p"]
    n = divisibility.first_failing_n(p, **point, n_max=params["n_max"])
    return {**point, "p": p, "first_failing_n": n, "survives": n is None}


def _oddp2(params, point):
    m = params["m"]
    return {**point, "m": m, "survives": divisibility._pair_survives(
        m, **point, n_max=params["n_max"])}


def _c330(params, point):
    degree, negatives = qdivisibility.check_c330n88n(**point)
    expected = qdivisibility.conjectured_pattern(**point)
    negatives = [list(t) for t in negatives]
    return {**point, "degree": degree, "negatives": negatives,
            "matches_pattern": [list(t) for t in expected] == negatives}


def _every(key: str, field: str):
    """The rule that every record's `key` holds, reported as `field`."""
    def rule(records):
        ok = all(r[key] for r in records)
        return {field: ok}, EXIT_OK if ok else EXIT_INCONCLUSIVE
    return rule


def _oddp_rule(records):
    count = sum(r["survives"] for r in records)
    return {"survivor_count": count}, EXIT_INCONCLUSIVE if count else EXIT_OK


def _oddp2_rule(records):
    survivors = [[r["a"], r["b"]] for r in records if r["survives"]]
    return {"survivors": survivors}, EXIT_OK if survivors else EXIT_INCONCLUSIVE


# By command, then by id; the id is recorded under the name of the
# command's positional argument.
_GRIDS = {
    "verify": {
        "thm0": _Claim(_abn, _thm0),
        "thm3": _Claim(_ns, _thm3),
        "thm4": _Claim(_ns, _thm4),
        "thm_kn": _Claim(lambda params: [
            {**p, "k": k} for p in _ns(params) for k in range(p["n"] + 1)], _thm_kn),
        "andrews": _Claim(_ab, _andrews),
        "anbn": _Claim(_abn, _anbn),
        "decomposition": _Claim(lambda params: [
            p for p in _abn(params) if p["a"] * p["n"] >= 2], _decomposition),
    },
    "conj": {
        "conj2witness": _Claim(_ab, _conj2, ("a_max", "b_max", "p_cap"),
                               _every("found", "all_found"), "found"),
        "oddp": _Claim(lambda params: [p for p in _ab(params) if p["b"] < p["a"]],
                       _oddp, ("p", "a_max", "b_max", "n_max"), _oddp_rule,
                       "survives"),
        "oddp2": _Claim(lambda params: [
            p for p in _ab(params) if p["a"] * params["m"] > p["b"]],
            _oddp2, ("m", "a_max", "b_max", "n_max"), _oddp2_rule, "survives"),
        "c330n88n": _Claim(lambda params: (
            _ns(params) if params["n"] is None else [{"n": params["n"]}]),
            _c330, ("n", "n_max"), _every("matches_pattern", "all_match"),
            "matches_pattern"),
    },
}


# ---------------------------------------------------------------------------
# Grid running, checkpointing, reporting.

def _map_ordered(worker, points, width):
    # A pool wider than the points left or the CPUs would only idle.
    width = min(width, len(points), os.cpu_count() or 1)
    if width <= 1:
        yield from map(worker, points)
        return
    # Only a width above 1 pays for loading the process pool.
    from concurrent.futures import ProcessPoolExecutor

    # Workers start with the budgets of this call, however they are started.
    with ProcessPoolExecutor(max_workers=width, initializer=_set_budgets,
                             initargs=(core.prime_budget,
                                       qpoly.degree_budget)) as ex:
        chunk = max(1, len(points) // (width * 8))
        yield from ex.map(worker, points, chunksize=chunk)


def _refuse(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _carries(value, fields: dict) -> bool:
    """Is value a JSON object with each of `fields`, equal and of the same
    type (so a stored true or 1.0 does not stand for a coordinate 1)?"""
    return isinstance(value, dict) and all(
        type(value.get(k)) is type(v) and value[k] == v
        for k, v in fields.items())


def _load_checkpoint(path: str, command: str, parameters: dict,
                     budget_degree: int, points: list, verdict: str) -> list[dict]:
    """The records of a checkpoint of this grid: a JSON header line, then one
    record per line.

    Refuses a header that is not a JSON object or that another engine
    version, command or degree budget wrote.  The i-th record must carry the
    coordinates of the i-th point and a boolean `verdict` field, and there
    are no more records than points; the first line that does not (a torn
    write, or a record of another grid) starts a tail that is dropped from
    the file with a warning.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict):
        _refuse("checkpoint header is not a JSON object")
    if header.get("engine_version") != __version__:
        _refuse("checkpoint written by a different engine version")
    found = header.get("fingerprint")
    if found != _fingerprint(command, parameters, budget_degree):
        if "budget_degree" not in header:
            _refuse("checkpoint predates degree-budget fingerprints; delete it")
        written = header["budget_degree"]
        if found == _fingerprint(command, parameters, written):
            _refuse(f"checkpoint written under degree budget {written}, "
                    f"not {budget_degree}")
        _refuse("checkpoint belongs to a different command")
    records = []
    for i, (line, point) in enumerate(zip(lines[1:], points + [None]), start=1):
        try:
            value = json.loads(line)
        except ValueError:
            value = None
        if (point is None or not _carries(value, point)
                or type(value.get(verdict)) is not bool):
            print(f"warning: dropping corrupt checkpoint tail at line {i + 1}",
                  file=sys.stderr)
            _atomic_write(open(path + ".tmp", "w", encoding="utf-8"), path,
                          "\n".join(lines[:i]) + "\n")
            break
        records.append(value)
    return records


def _atomic_write(fh, path: str, content: str) -> None:
    """Write content to fh, the open temporary file beside path, and move
    it over path."""
    try:
        with fh:
            fh.write(content)
        os.replace(fh.name, path)
    except OSError:
        os.remove(fh.name)  # a failed write leaves no temporary file behind
        raise


def _open_report(path: str):
    """The temporary file that the report to path is written to.

    main opens it before any point runs, so a report that cannot be
    written fails first, and the error names path as given.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        return open(path + ".tmp", "w", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _run_grid(args, command: str, parameters: dict, points: list, worker,
              verdict: str):
    """Run a grid, optionally resuming from and appending to a checkpoint
    whose records each carry a boolean `verdict` field.

    Returns the records, their JSON lines, and whether a budget ran out
    before the last point; the records finished before it are kept (and
    checkpointed).
    """
    budget_degree = qpoly.degree_budget
    records: list[dict] = []
    checkpoint = args.checkpoint
    fh = None
    if checkpoint:
        # A missing or empty file starts a fresh checkpoint.
        fresh = not os.path.exists(checkpoint) or not os.path.getsize(checkpoint)
        if not fresh:
            records = _load_checkpoint(checkpoint, command, parameters,
                                       budget_degree, points, verdict)
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
    return records, lines, partial


def _cmd_grid(id_option: str, args) -> int:
    """Run the grid of the `verify` or `conj` claim named by `id_option`."""
    claim_id = getattr(args, id_option)
    claim = _GRIDS[args.command][claim_id]
    params = {id_option: claim_id, **{o: getattr(args, o) for o in claim.options}}
    records, lines, partial = _run_grid(
        args, args.command, params, claim.points(params),
        functools.partial(claim.worker, params), claim.verdict)
    summary, code = claim.rule(records)
    if partial or summary.get("partial"):
        summary["partial"] = True
        code = EXIT_PARTIAL
        # A claim cannot hold over points that never finished; a finished
        # record that contradicts it still makes it false.
        for field in _CLAIM_FIELDS:
            if summary.get(field) is True:
                summary[field] = None
    _emit(args, args.command, params, records, summary, lines)
    return code


def _emit(args, command: str, parameters: dict, records: list[dict],
          summary_extra: dict, lines: list[str] | None = None) -> None:
    """Report records (whose JSON lines may be given) and a summary."""
    summary = {"record": "summary", "command": command,
               "parameters": parameters, "engine_version": __version__,
               "record_count": len(records), **summary_extra}
    if lines is None:
        lines = [_record_dumps(r) for r in records]
    lines = lines + [_record_dumps(summary)]
    output = args.output
    if output:
        _atomic_write(args.report, output, "\n".join(lines) + "\n")
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
    result = divisibility.f_ab(args.a, args.b, n_cap=args.n_cap)
    info = result.bound
    record = {"a": args.a, "b": args.b, "verdict": result.verdict,
              "n": result.n, "n_max": result.n_max,
              "bound": None if info is None else {
                  "p": info.p, "bound": info.bound, "s": info.s}}
    _emit(args, "fab", params, [record], {"verdict": result.verdict})
    return EXIT_OK if result.verdict in ("found", "proven_zero") else EXIT_INCONCLUSIVE


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
    gaussian = qpoly.QuotientExpr((), (), args.m, args.k)
    if args.exponents:
        f = qpoly.expr_factorization(gaussian)
        record = {"m": args.m, "k": args.k,
                  "exponents": {str(d): e for d, e in sorted(f.exponents.items())}}
    else:
        poly = qpoly.expand_expr(gaussian)
        record = {"m": args.m, "k": args.k, "degree": poly.degree,
                  "coeffs": list(poly.coeffs)}
    _emit(args, "qbinom", params, [record], {})
    return EXIT_OK


def _cmd_theta(args) -> int:
    params = {"x": args.x}
    theta = divisibility.chebyshev_theta_3_2(args.x)
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
    parser.add_argument("--par", type=_int_at_least(1), default=1,
                        help="worker pool width (default 1; at most the CPU "
                             "count and the points left)")
    parser.add_argument("--checkpoint",
                        help="append-only checkpoint log; resumable")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`.  Grid bounds
    start at 1, so no claim is reported as holding over an empty grid;
    --p and --p-cap start at 2, the least prime; --par starts at 1, one
    worker; budgets start at 0."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {low}, not {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="divcert")
    parser.add_argument("--budget-degree", type=_int_at_least(0),
                        help="expansion degree budget (DIVCERT_BUDGET_DEGREE)")
    parser.add_argument("--budget-prime", type=_int_at_least(0),
                        help="sieve budget (DIVCERT_BUDGET_PRIME)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fab", help="first n with (bn+1) not dividing binom((a+b)n, an)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--n-cap", type=_int_at_least(0), default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_fab)

    p = sub.add_parser("verify", help="grid-run a theorem verifier")
    p.add_argument("theorem_id", choices=list(_GRIDS["verify"]))
    p.add_argument("--n-max", type=_int_at_least(1), default=10)
    p.add_argument("--a-max", type=_int_at_least(1), default=10)
    p.add_argument("--b-max", type=_int_at_least(1), default=10)
    p.add_argument("--expand", action="store_true",
                   help="also expand coefficients where budgets allow")
    _add_grid(p)
    p.set_defaults(func=functools.partial(_cmd_grid, "theorem_id"))

    p = sub.add_parser("conj", help="conjecture explorers and witness searches")
    p.add_argument("conjecture_id", choices=list(_GRIDS["conj"]))
    p.add_argument("--a-max", type=_int_at_least(1), default=10)
    p.add_argument("--b-max", type=_int_at_least(1), default=10)
    p.add_argument("--n-max", type=_int_at_least(1), default=50)
    p.add_argument("--n", type=_int_at_least(1), default=None)
    p.add_argument("--m", type=_int_at_least(1), default=1)
    p.add_argument("--p", type=_int_at_least(2), default=3)
    p.add_argument("--p-cap", type=_int_at_least(2),
                   default=divisibility.CONJ2_PRIME_CAP_DEFAULT)
    _add_grid(p)
    p.set_defaults(func=functools.partial(_cmd_grid, "conjecture_id"))

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


def _set_budgets(prime: int, degree: int) -> None:
    """Put the engine's budgets in force in this process."""
    core.prime_budget = prime
    qpoly.degree_budget = degree


def _budget(option: int | None, var: str, default: int) -> int:
    """The option if given, else the environment variable, else the default;
    the variable is held to the options' type."""
    if option is not None:
        return option
    text = os.environ.get(var)
    if text is None:
        return default
    try:
        return _int_at_least(0)(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{var} {exc}") from None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    # The budgets hold for this call only.
    saved = core.prime_budget, qpoly.degree_budget
    report = None
    try:
        _set_budgets(
            _budget(args.budget_prime, "DIVCERT_BUDGET_PRIME",
                    core.SIEVE_BUDGET_DEFAULT),
            _budget(args.budget_degree, "DIVCERT_BUDGET_DEGREE",
                    qpoly.DEGREE_BUDGET_DEFAULT))
        if args.output:
            report = args.report = _open_report(args.output)
        code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IOERR
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_PARTIAL
    finally:
        _set_budgets(*saved)
        # _emit closes the report it writes; one still open was not reached.
        if report is not None and not report.closed:
            report.close()
            os.remove(report.name)
    print(f"elapsed {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
