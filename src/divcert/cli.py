"""Command-line surface: subcommands fab, verify, conj, primes, qbinom, theta,
each declared in one table, _COMMANDS, with its help, arguments (least value,
default), and single-record function or grid claims by id.  The parser and
each report's recorded parameters both come from that table.

Output is line-delimited JSON: one record per grid point (stable key order)
followed by a summary record; --table, refused with --output, renders the
same records for humans.  Long grid runs can be checkpointed to an
append-only log and resumed; a resumed run produces byte-identical records
to an uninterrupted one, so wall-clock timing is reported on stderr rather
than inside the records.  A checkpoint that --output would overwrite, or
a file whose header has no fingerprint, is refused.

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
# every argument of its command, reads `ok` and shares one rule.  Workers
# are module level, so they pickle for --par, and look engine functions up
# per call, so wrappers installed on the engine modules (tracers) see them.

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
    options: tuple[str, ...] | None = None  # recorded after its id; None: all
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


# ---------------------------------------------------------------------------
# The command table, and the single-record commands it runs: each maps its
# parameters to (records, summary fields, exit code).

def _fab(params):
    result = divisibility.f_ab(**params)
    bound = None if result.bound is None else result.bound._asdict()
    record = {"a": result.a, "b": result.b, "verdict": result.verdict,
              "n": result.n, "n_max": result.n_max, "bound": bound}
    return [record], {"verdict": result.verdict}, (
        EXIT_OK if result.verdict in ("found", "proven_zero") else EXIT_INCONCLUSIVE)


def _primes(params):
    report = divisibility.prime_window_verify(params["lo"], params["hi"])
    records = [{"x": x, "witness_prime": p} for x, p in report.entries]
    records += [{"x": x, "witness_prime": None} for x in report.failures]
    records.sort(key=lambda r: r["x"])
    return records, {"failures": list(report.failures)}, (
        EXIT_INCONCLUSIVE if report.failures else EXIT_OK)


def _qbinom(params):
    record = {"m": params["m"], "k": params["k"]}
    gaussian = qpoly.QuotientExpr((), (), params["m"], params["k"])
    if params["exponents"]:
        f = qpoly.expr_factorization(gaussian)
        record["exponents"] = {str(d): e for d, e in sorted(f.exponents.items())}
    else:
        poly = qpoly.expand_expr(gaussian)
        record.update(degree=poly.degree, coeffs=list(poly.coeffs))
    return [record], {}, EXIT_OK


def _theta(params):
    theta = divisibility.chebyshev_theta_3_2(**params)
    return [{"x": theta.x, "theta": theta.value, "error_bound": theta.error_bound,
             "prime_count": theta.prime_count}], {}, EXIT_OK


class _Arg(NamedTuple):
    """A positional ("a") or option ("--n-max"): an integer >= least, or
    without one, a flag (an option) or the id of a claim (a positional)."""
    name: str
    least: int | None = None
    default: int | None = None
    required: bool = False
    help: str | None = None


class _Command(NamedTuple):
    """A subcommand: a single-record `run`, or `claims` by id, its first
    argument.  Its report records its arguments as parameters; a claim with
    `options` records only those after its id."""
    help: str
    arguments: tuple[_Arg, ...]
    run: Callable[[dict], tuple[list[dict], dict, int]] | None = None
    claims: dict[str, _Claim] | None = None


_COMMANDS = {
    "fab": _Command(
        "first n with (bn+1) not dividing binom((a+b)n, an)",
        (_Arg("a", 1), _Arg("b", 1), _Arg("--n-cap", 0)), run=_fab),
    "verify": _Command(
        "grid-run a theorem verifier",
        (_Arg("theorem_id"), _Arg("--n-max", 1, 10), _Arg("--a-max", 1, 10),
         _Arg("--b-max", 1, 10),
         _Arg("--expand", help="also expand coefficients where budgets allow")),
        claims={
            "thm0": _Claim(_abn, _thm0),
            "thm3": _Claim(_ns, _thm3),
            "thm4": _Claim(_ns, _thm4),
            "thm_kn": _Claim(lambda params: [
                {**p, "k": k} for p in _ns(params) for k in range(p["n"] + 1)],
                _thm_kn),
            "andrews": _Claim(_ab, _andrews),
            "anbn": _Claim(_abn, _anbn),
            "decomposition": _Claim(lambda params: [
                p for p in _abn(params) if p["a"] * p["n"] >= 2], _decomposition),
        }),
    "conj": _Command(
        "conjecture explorers and witness searches",
        (_Arg("conjecture_id"), _Arg("--a-max", 1, 10), _Arg("--b-max", 1, 10),
         _Arg("--n-max", 1, 50), _Arg("--n", 1), _Arg("--m", 1, 1), _Arg("--p", 2, 3),
         _Arg("--p-cap", 2, divisibility.CONJ2_PRIME_CAP_DEFAULT)),
        claims={
            "conj2witness": _Claim(_ab, _conj2, ("a_max", "b_max", "p_cap"),
                                   _every("found", "all_found"), "found"),
            "oddp": _Claim(lambda params: [
                p for p in _ab(params) if p["b"] < p["a"]],
                _oddp, ("p", "a_max", "b_max", "n_max"), _oddp_rule, "survives"),
            "oddp2": _Claim(lambda params: [
                p for p in _ab(params) if p["a"] * params["m"] > p["b"]],
                _oddp2, ("m", "a_max", "b_max", "n_max"), _oddp2_rule, "survives"),
            "c330n88n": _Claim(lambda params: (
                _ns(params) if params["n"] is None else [{"n": params["n"]}]),
                _c330, ("n", "n_max"), _every("matches_pattern", "all_match"),
                "matches_pattern"),
        }),
    "primes": _Command(
        "witness primes == 2 (mod 3) in windows (x, 20x/19)",
        (_Arg("--lo", 2, required=True), _Arg("--hi", 2, required=True)),
        run=_primes),
    "qbinom": _Command(
        "dump a Gaussian polynomial or exponent vector",
        (_Arg("m", 0), _Arg("k", 0), _Arg("--exponents")), run=_qbinom),
    "theta": _Command("Chebyshev theta on the class 2 mod 3", (_Arg("x", 2),),
                      run=_theta),
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

    Refuses a header that is not a JSON object with a fingerprint (a report
    has none), or that another engine version, command or degree budget
    wrote.  The i-th record must carry the coordinates of the i-th point and
    a boolean `verdict` field, and there are no more records than points;
    the first line that does not (a torn write, or a record of another grid)
    starts a tail that is dropped from the file with a warning.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict):
        _refuse("checkpoint header is not a JSON object")
    found = header.get("fingerprint")
    if type(found) is not str:
        _refuse("not a divcert checkpoint header: it has no fingerprint")
    if header.get("engine_version") != __version__:
        _refuse("checkpoint written by a different engine version")
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


def _cmd_grid(args, params: dict, claim: _Claim):
    """Run a claim's grid under params, its recorded parameters, on --par
    workers, resuming from and appending to any --checkpoint.  Returns the
    records, the summary fields and exit code of the claim's rule, and the
    records' JSON lines.  A budget that runs out before the last point
    keeps the records finished (and checkpointed) and makes the exit 3."""
    points = claim.points(params)
    budget_degree = qpoly.degree_budget
    records: list[dict] = []
    checkpoint = args.checkpoint
    fh = None
    if checkpoint:
        # A missing or empty file starts a fresh checkpoint.
        fresh = not os.path.exists(checkpoint) or not os.path.getsize(checkpoint)
        if not fresh:
            records = _load_checkpoint(checkpoint, args.command, params,
                                       budget_degree, points, claim.verdict)
        fh = open(checkpoint, "a", encoding="utf-8")
        if fresh:
            fh.write(_record_dumps({
                "budget_degree": budget_degree,
                "engine_version": __version__,
                "fingerprint": _fingerprint(args.command, params, budget_degree),
            }) + "\n")
            fh.flush()
    lines = [_record_dumps(r) for r in records]
    partial = False
    try:
        for rec in _map_ordered(functools.partial(claim.worker, params),
                                points[len(records):], args.par):
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
    summary, code = claim.rule(records)
    if partial or summary.get("partial"):
        summary["partial"] = True
        code = EXIT_PARTIAL
        # A claim cannot hold over points that never finished; a finished
        # record that contradicts it still makes it false.
        for field in _CLAIM_FIELDS:
            if summary.get(field) is True:
                summary[field] = None
    return records, summary, code, lines


def _run(args) -> int:
    """Run and report the subcommand args name, as _COMMANDS declares it."""
    command = _COMMANDS[args.command]
    names = [arg.name.lstrip("-").replace("-", "_") for arg in command.arguments]
    params = {name: getattr(args, name) for name in names}
    if command.claims is None:
        (records, summary, code), lines = command.run(params), None
    else:
        claim = command.claims[params[names[0]]]
        params = {name: params[name]
                  for name in names[:1] + list(claim.options or names[1:])}
        records, summary, code, lines = _cmd_grid(args, params, claim)
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

def _int_at_least(low: int):
    """An argparse type for every integer argument and budget: an integer no
    smaller than `low`.  Grid bounds and fab's a, b start at 1, so no claim
    holds over an empty grid; --p, --p-cap, --lo, --hi and theta's x at 2,
    the least prime; --par at 1 worker; qbinom's m, k, --n-cap and budgets
    at 0.  The engine's ValueError keeps bounds between two (k <= m)."""
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
    """The parser of every subcommand in _COMMANDS."""
    parser = _Parser(prog="divcert")
    parser.add_argument("--budget-degree", type=_int_at_least(0),
                        help="expansion degree budget (DIVCERT_BUDGET_DEGREE)")
    parser.add_argument("--budget-prime", type=_int_at_least(0),
                        help="sieve budget (DIVCERT_BUDGET_PRIME)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg in command.arguments:
            if arg.least is not None:
                kind = {"type": _int_at_least(arg.least), "default": arg.default}
                if arg.required:  # argparse takes no `required` for a positional
                    kind["required"] = True
            elif arg.name.startswith("-"):
                kind = {"action": "store_true"}
            else:
                kind = {"choices": list(command.claims)}
            p.add_argument(arg.name, help=arg.help, **kind)
        report = p.add_mutually_exclusive_group()
        report.add_argument("--table", action="store_true",
                            help="render records as a table instead of JSON lines")
        report.add_argument("--output", help="write the report to a file")
        if command.claims:
            p.add_argument("--par", type=_int_at_least(1), default=1,
                           help="worker pool width (default 1; at most the CPU "
                                "count and the points left)")
            p.add_argument("--checkpoint",
                           help="append-only checkpoint log; resumable")
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
            checkpoint = getattr(args, "checkpoint", None)
            if checkpoint and os.path.realpath(checkpoint) in {
                    os.path.realpath(args.output + end) for end in ("", ".tmp")}:
                _refuse("--checkpoint would be overwritten by --output")
            report = args.report = _open_report(args.output)
        code = _run(args)
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
