"""What a fresh interpreter loads: the lazy package root and each CLI command.

`import icgraph` resolves its public names and layer submodules on first
access, and the CLI imports `search`, `transform`, `json` and `csv` only
in the commands and formats that use them. No layer loads `dataclasses`
or `inspect`: the records are validated named tuples, since importing
`dataclasses` (and through it `inspect`) would take a large share of
the cold start of `search` and `transform`. Every check here runs in a
new interpreter, since this one has long since imported everything.
"""

import ast
import subprocess
import sys

import pytest

from helpers import SRC, src_env

# Loaded only by the commands that need them; dataclasses and inspect by none.
OPTIONAL = frozenset(
    ("icgraph.search", "icgraph.transform", "dataclasses", "inspect", "fractions", "json", "csv")
)

# Runs `python -m icgraph <argv>` through runpy, as -m does, and prints the
# exit code and the modules the run added to those the interpreter started with.
CLI_RUN = """
import io, runpy, sys
before = set(sys.modules)
sys.stdout = io.StringIO()
try:
    runpy.run_module("icgraph", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout = sys.__stdout__
print(repr((code, sorted(set(sys.modules) - before))))
"""

# (argv, the OPTIONAL modules it loads)
CLI_CASES = [
    ("emin --p 2 --s 5", set()),
    ("energy --p 5 --s 4 --exponents 0,1,3", set()),
    ("energy --n 12 --divisors 1,2 --method spectral", set()),
    ("classify --n 30 --divisors 1,2", set()),
    ("spectrum --n 12 --divisors 1,2", set()),
    ("emax --p 2 --s 5", set()),
    ("emax --p 2 --s 5 --brute", {"icgraph.search"}),
    ("verify --pmax 3 --smax 3", {"icgraph.search"}),
    ("trace --p 2 --s 9 --delta 8", {"icgraph.transform"}),
    ("emin --p 2 --s 5 --format json", {"json"}),
    ("spectrum --n 12 --divisors 1,2 --format csv", {"csv"}),
]


def fresh(code: str, *args: str):
    """Run code in a new interpreter and literal_eval the last line it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, expected", CLI_CASES, ids=[argv for argv, _ in CLI_CASES])
def test_each_command_loads_only_the_layers_it_runs(argv, expected):
    code, loaded = fresh(CLI_RUN, *argv.split())
    assert code == 0
    assert "icgraph.cli" in loaded
    assert OPTIONAL.intersection(loaded) == expected


def test_import_icgraph_loads_no_layer():
    loaded = fresh("import sys, icgraph; print(sorted(sys.modules))")
    assert [m for m in loaded if m.startswith("icgraph.")] == []


def test_the_layers_load_neither_dataclasses_nor_inspect():
    code = (
        "import sys, icgraph\n"
        "order = icgraph.PrimePowerOrder(3, 6)\n"
        "ok, problems = icgraph.verify_theorem(order)\n"
        "report = icgraph.brute_force_emax_general(12)\n"
        "trace = icgraph.normalize((5,), order)\n"
        "moves = icgraph.applicable((1, 2, 1))\n"
        "print(repr((ok, report.emax, len(trace.steps), len(moves),\n"
        "            sorted({'dataclasses', 'inspect'} & set(sys.modules)))))\n"
    )
    ok, emax, steps, moves, loaded = fresh(code)
    assert (ok, loaded) == (True, [])
    assert emax > 0 and steps > 0 and moves > 0


def test_layers_resolve_without_a_submodule_import():
    code = (
        "import icgraph\n"
        "energy = icgraph.energy.energy_general\n"
        "brute = icgraph.search.brute_force_emax_prime_power\n"
        "rewrite = icgraph.transform.normalize\n"
        "found = (energy, brute, rewrite)\n"
        "print(repr((*(f.__module__ for f in found), energy(12, (1,)))))\n"
    )
    # ICG(12, {1}) is the unitary Cayley graph: energy 2^omega(12) phi(12) = 16
    modules = ("icgraph.energy", "icgraph.search", "icgraph.transform")
    assert fresh(code) == (*modules, 16)


def test_a_resolved_name_is_bound_in_the_package():
    code = (
        "import icgraph\n"
        "first = 'normalize' in vars(icgraph)\n"
        "found = icgraph.normalize is icgraph.transform.normalize\n"
        "print(repr((first, found, vars(icgraph)['normalize'] is icgraph.transform.normalize)))\n"
    )
    assert fresh(code) == (False, True, True)


def test_star_import_binds_exactly_all():
    code = (
        "import icgraph\n"
        "ns = {}\n"
        "exec('from icgraph import *', ns)\n"
        "ns.pop('__builtins__')\n"
        "print(repr((sorted(ns), icgraph.__all__, dir(icgraph))))\n"
    )
    bound, names, listed = fresh(code)
    assert len(names) == len(set(names)) == 34
    assert names[:6] == [
        "PrimePowerOrder", "ResourceLimitError", "MaximizerReport",
        "Trace", "TransformLabel", "TransformStep",
    ]
    assert names[6:] == sorted(names[6:])
    assert bound == sorted(names)
    assert set(names) <= set(listed)
    assert {"energy", "model", "numtheory", "search", "transform", "cli"} <= set(listed)
    # The paper identities are test references, not a layer of the package.
    assert "oracles" not in listed


def test_unknown_names_raise_attribute_error():
    code = (
        "import icgraph\n"
        "out = []\n"
        "for name in ('no_such_name', '_gcd_class_counts', 'check_int', 'oracles'):\n"
        "    try:\n"
        "        getattr(icgraph, name)\n"
        "    except AttributeError as exc:\n"
        "        out.append(str(exc))\n"
        "print(repr((out, hasattr(icgraph, 'no_such_name'))))\n"
    )
    messages, found = fresh(code)
    assert messages == [
        "module 'icgraph' has no attribute 'no_such_name'",
        "module 'icgraph' has no attribute '_gcd_class_counts'",
        "module 'icgraph' has no attribute 'check_int'",
        "module 'icgraph' has no attribute 'oracles'",
    ]
    assert found is False


def test_the_package_imports_only_the_standard_library():
    # numpy and sympy are installed for the tests, so a stray import of
    # either would pass every other check here.
    allowed = sys.stdlib_module_names | {"icgraph"}
    imported = {}
    for path in sorted((SRC / "icgraph").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one within icgraph
            for name in names:
                imported.setdefault(name.partition(".")[0], set()).add(path.name)
    assert {"argparse", "math", "importlib"} <= set(imported)
    assert {name: files for name, files in imported.items() if name not in allowed} == {}
