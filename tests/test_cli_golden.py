"""Byte-exact CLI output against stored runs.

Every argv in benchmarks/data/cli_golden.json (the benchmark's catalog,
all exit 0) and in tests/data/cli_golden_extra.json (branches the
catalog misses: the zero-step trace, s = 1 edges, every --help text and
the exit-3 discrepancy renders) must give the stored stdout and exit
code. Both files are only read here; the extra file was captured from
the CLI before its render path was merged, and is not regenerated.
"""

import json
import sys
from pathlib import Path

import pytest

from icgraph import cli, search

TESTS = Path(__file__).resolve().parent
CATALOG = json.loads((TESTS.parent / "benchmarks" / "data" / "cli_golden.json").read_text())
EXTRA = json.loads((TESTS / "data" / "cli_golden_extra.json").read_text())


def _emax_plus_two(real):
    def patched(order):
        value, tuples = real(order)
        return value + 2, tuples

    return patched


# Faults injected so the discrepancy renders can be reached at all, each
# with the module it goes into: cli imports verify_theorem from search
# only when verify runs.
PATCHES = {
    "emax_closed": (cli, _emax_plus_two(cli.emax_closed)),
    "energy_prime_power": (cli, lambda order, a: 4),
    "verify_theorem": (search, lambda order, jobs=1: (False, ["emax mismatch"])),
}

CASES = [dict(entry, exit=0, system_exit=False, patch=None) for entry in CATALOG]
CASES += EXTRA["cases"]


def run_case(case, monkeypatch, capsys):
    """(stdout, exit code, whether it came as SystemExit) of one stored argv."""
    # argparse wraps --help text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    if case["patch"]:
        target, fault = PATCHES[case["patch"]]
        monkeypatch.setattr(target, case["patch"], fault)
    try:
        code, system_exit = cli.main(list(case["argv"])), False
    except SystemExit as exc:
        code, system_exit = exc.code, True
    return capsys.readouterr().out, code, system_exit


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=[" ".join(c["argv"]) + (f" [{c['patch']}]" if c["patch"] else "") for c in CASES],
)
def test_stdout_and_exit_code_match_the_stored_run(case, monkeypatch, capsys):
    if case["system_exit"] and sys.version_info[:2] != tuple(EXTRA["help_python"]):
        pytest.skip("argparse lays out --help differently across Python minor versions")
    out, code, system_exit = run_case(case, monkeypatch, capsys)
    assert (code, system_exit) == (case["exit"], case["system_exit"])
    assert out == case["stdout"]
