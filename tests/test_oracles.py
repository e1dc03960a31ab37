"""The reference implementations live in tests/oracles.py, not in the engine:
no engine module still carries one of them, nor a second route to a
quantity it computes once, nor a second way to set one of its limits, nor
a public name that nothing in the engine uses; nor does cli.py define at
module level a name it never reads.  The oracles in turn do not expand
through the engine's kernels, nor read the engine's cyclotomic exponents."""

import ast
import collections
import inspect
import types
from pathlib import Path

import pytest

from divcert import core, divisibility, qdivisibility, qpoly

LEFT_THE_ENGINE = [
    (qpoly, ("cyclotomic", "_cyclo_cache", "_cyclo_lock", "threading",
             "exact_div", "expand", "_mobius", "qbinom_poly",
             "qbinom_factorization", "is_reciprocal", "is_unimodal",
             "unimodal_quotient_check", "expr_factorization", "is_polynomial",
             "_qbinom_exponents")),
    (qpoly.IntPoly, ("evaluate", "__add__", "__sub__", "__neg__", "__mul__",
                     "shift", "is_zero")),
    (qpoly.CycloFactorization, ("sign",)),
    (core, ("gcd", "base_p_digits", "lucas_binom_mod_p", "totients_up_to",
            "totient_table", "_totients", "_totients_limit", "_totients_lock",
            "radical", "legendre_valuation_factorial", "_legendre_sum")),
    (divisibility, ("lucas_residue_family", "surviving_pairs")),
    (divisibility.PrimeWindowReport, ("range",)),
    (qdivisibility, ("b_nk_poly", "generalized_q_catalan", "IntPoly")),
]


@pytest.mark.parametrize("owner, name", [
    (owner, name) for owner, names in LEFT_THE_ENGINE for name in names],
    ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_name_left_the_engine(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize("module", [core, divisibility, qdivisibility, qpoly],
                         ids=lambda m: m.__name__)
def test_no_call_takes_its_own_limit(module):
    # Limits are module values (core.prime_budget, qpoly.degree_budget and
    # the fixed ceilings), read when a function is called.
    public = [value for name, value in vars(module).items()
              if not name.startswith("_") and isinstance(value, types.FunctionType)
              and value.__module__ == module.__name__]
    assert public
    for fn in public:
        params = inspect.signature(fn).parameters
        assert not {"budget", "ceiling", "power_cap"} & params.keys(), fn.__name__


ENGINE = Path(__file__).resolve().parents[1] / "src" / "divcert"

# Public names the engine keeps without an engine caller.  The benchmark's
# tracer hooks core.binom_valuation to count valuations, until ROADMAP item 1
# counts them in core._valuation, and patches CycloFactorization.degree to
# time it, so every traced run needs both.
UNUSED_KEPT = {"core.binom_valuation", "qpoly.CycloFactorization.degree"}


def _references(node) -> collections.Counter:
    """How often each name is read, as a bare name or an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)))


def _method_calls(node) -> collections.Counter:
    """How often each name is called as a method, x.name(...)."""
    return collections.Counter(
        n.func.attr for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute))


def _public_definitions(tree):
    """(qualified name, node) of each public function, class and method."""
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def test_every_public_engine_name_is_used():
    # A method with no decorator is used only where it is called, so a
    # property or a field of the same name (IntPoly.degree,
    # QFamilyVerdict.degree) does not stand for it.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(ENGINE.glob("*.py"))}
    unused = set()
    for count in (_references, _method_calls):
        total = sum((count(tree) for tree in trees.values()),
                    collections.Counter())
        unused |= {f"{module}.{qualname}"
                   for module, tree in trees.items()
                   for qualname, node in _public_definitions(tree)
                   if (count is _method_calls) == (
                       "." in qualname and not node.decorator_list)
                   and total[node.name] == count(node)[node.name]}
    assert unused == UNUSED_KEPT


def _module_definitions(tree):
    """(name, node) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def test_every_cli_definition_is_read():
    # No engine module imports the CLI, so a name it defines and never
    # reads serves no one.  An assigned name counts once in its own node.
    tree = ast.parse((ENGINE / "cli.py").read_text())
    total = _references(tree)
    definitions = list(_module_definitions(tree))
    assert len(definitions) > 40
    assert [name for name, node in definitions
            if total[name] == _references(node)[name]] == []


# The engine's expansion passes and its cyclotomic exponents; an oracle
# that ran through them would check the engine against itself.
ENGINE_ROUTES = {"_binomial_quotient", "mul_one_minus_qt", "div_one_minus_qt",
                 "_kernels", "expr_factorization", "is_polynomial",
                 "divisor_exponents", "polynomiality", "CycloFactorization"}


def _imported_and_read(tree) -> set[str]:
    """Every name read (bare or as an attribute) or imported, with each
    dotted module path split into its parts."""
    names = set(_references(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def test_oracles_do_not_use_the_engine_kernels():
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text())
    assert not ENGINE_ROUTES & _imported_and_read(tree)
