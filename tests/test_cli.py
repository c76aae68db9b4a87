"""Command line surface: formats, determinism, exit codes."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from icgraph import cli, search
from icgraph.cli import UsageError, _int_list, format_ints

from helpers import src_env


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- happy paths

def test_energy_formula_and_spectral_agree(capsys):
    code, out, _ = run_cli(
        capsys,
        ["energy", "--p", "5", "--s", "4", "--exponents", "0,1,3", "--format", "json"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["results"]["energy"] == "2008"
    assert record["inputs"]["method"] == "formula"


def test_energy_method_both_reports_agreement(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "energy",
            "--n", "625",
            "--divisors", "1,5,125",
            "--method", "both",
            "--format", "json",
        ],
    )
    assert code == 0
    record = json.loads(out)
    assert record["results"]["agreement"] is True
    assert record["results"]["energy_formula"] == "2008"
    assert record["results"]["energy_spectral"] == "2008"


def test_energy_general_instance(capsys):
    code, out, _ = run_cli(
        capsys,
        ["energy", "--n", "105", "--divisors", "1,15,21,35", "--format", "json"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["results"]["energy"] == "520"
    assert record["inputs"]["method"] == "spectral"


def test_json_output_round_trips_byte_exactly(capsys):
    code, out, _ = run_cli(
        capsys, ["emax", "--p", "2", "--s", "30", "--format", "json"]
    )
    assert code == 0
    record = json.loads(out)
    assert json.dumps(record, indent=2, sort_keys=True) + "\n" == out
    assert record["results"]["emax"] == "11572550770"
    assert len(record["results"]["maximizer_exponents"]) == 2


def test_emax_brute_agreement(capsys):
    code, out, _ = run_cli(
        capsys, ["emax", "--p", "3", "--s", "4", "--brute", "--format", "json"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["results"]["agreement"] is True
    assert record["results"]["brute_examined"] == 15


def test_emin_json(capsys):
    code, out, _ = run_cli(capsys, ["emin", "--p", "3", "--s", "7", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["results"]["emin"] == "2916"
    assert record["results"]["minimizer_divisor_sets"] == [
        [str(3**t)] for t in range(7)
    ]


def test_trace_csv_has_the_fixed_column_order(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "trace",
            "--p", "2",
            "--s", "30",
            "--delta", "5,1,3,3,2,1,1,6,1,1,3,2",
            "--format", "csv",
        ],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["step", "label", "u", "v", "before", "after", "r", "energy"]
    body = rows[1:]
    assert [row[0] for row in body] == [str(i + 1) for i in range(len(body))]
    assert _int_list(body[0][4]) == (5, 1, 3, 3, 2, 1, 1, 6, 1, 1, 3, 2)
    energies = [int(row[7]) for row in body]
    assert energies == sorted(energies)
    assert energies[-1] == 11572550770
    for row in body:
        assert int(row[6]) == len(_int_list(row[5])) + 1


def test_trace_json_chains(capsys):
    code, out, _ = run_cli(
        capsys,
        ["trace", "--p", "3", "--s", "8", "--delta", "(3,1,2,1)", "--format", "json"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["initial"]["vector"] == [3, 1, 2, 1]
    steps = record["steps"]
    for first, second in zip(steps, steps[1:]):
        assert first["after"] == second["before"]
        assert first["energy_after"] == second["energy_before"]
    assert record["terminal"]["vector"] == steps[-1]["after"]


def test_trace_table_includes_the_starting_row(capsys):
    code, out, _ = run_cli(
        capsys, ["trace", "--p", "3", "--s", "8", "--delta", "3,1,2,1"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["step", "label", "u", "v"]
    assert lines[1].split()[0] == "0"


def test_classify_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["classify", "--n", "105", "--divisors", "1,15,21,35", "--format", "json"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["results"]["classification"] == "hyperenergetic"
    assert record["results"]["energy"] == "520"
    assert record["results"]["koolen_moulton_ok"] is True


def test_spectrum_csv_lists_all_eigenvalues(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", "--n", "12", "--divisors", "1,4", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "eigenvalue"]
    assert len(rows) == 13
    values = [int(row[1]) for row in rows[1:]]
    assert sum(values) == 0
    assert sum(abs(v) for v in values) == 24


def test_verify_sweep(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--pmax", "3", "--smax", "4", "--format", "json"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["results"]["all_ok"] is True
    assert record["results"]["cases"] == 8


def test_verify_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--pmax", "3", "--smax", "2", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "s", "ok", "emax"]
    assert len(rows) == 5
    assert all(row[2] == "true" for row in rows[1:])


@pytest.mark.parametrize(
    "p, s, exponents",
    [
        (1000003, 120, range(0, 120, 2)),
        (2, 10000, (0, 1, 2, 4999, 9998, 9999)),
        (3, 8000, (0, 3999, 7998, 7999)),
    ],
)
def test_energy_by_n_factorizes_n_alone(capsys, monkeypatch, p, s, exponents):
    # Every d of a checked divisor set of p^s is a power of p, so its
    # exponent is read off p. Factorizing each d took 9.9 s on the first case.
    calls = []
    factorize = cli.factorize
    monkeypatch.setattr(cli, "factorize", lambda n: calls.append(n) or factorize(n))
    divisors = ",".join(str(p**e) for e in exponents)
    argv = ["energy", "--n", str(p**s), "--divisors", divisors, "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert calls == [p**s]
    inputs = json.loads(out)["inputs"]
    assert (inputs["p"], inputs["s"], inputs["exponents"]) == (str(p), s, list(exponents))


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int-str limit"
)
def test_outputs_beyond_the_int_str_digit_limit_print_exactly(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(
        capsys, ["energy", "--p", "2", "--s", "20000", "--exponents", "0,19999"]
    )
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    energy = out.splitlines()[-1].split(" = ")[1]
    sys.set_int_max_str_digits(0)
    try:
        assert int(energy) == 2**20001 - 2
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------- exit codes

@pytest.mark.parametrize(
    "argv",
    [
        ["energy"],
        ["energy", "--p", "5", "--s", "4"],
        ["energy", "--p", "4", "--s", "2", "--exponents", "0"],
        ["energy", "--n", "12", "--divisors", "1,5"],
        ["energy", "--n", "12", "--divisors", "1", "--p", "2", "--s", "2",
         "--exponents", "0"],
        ["energy", "--n", "105", "--divisors", "1,15", "--method", "formula"],
        ["emax", "--p", "2"],
        ["trace", "--p", "2", "--s", "9", "--delta", "2,2"],
        ["nonsense"],
        ["emax", "--p", "2", "--s", "3", "--format", "yaml"],
        # --jobs is no option: every search runs in this process.
        ["emax", "--p", "2", "--s", "4", "--brute", "--jobs", "2"],
        ["verify", "--pmax", "3", "--smax", "2", "--jobs", "2"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert err != ""


def test_resource_caps_exit_2(capsys):
    code, _, err = run_cli(capsys, ["emax", "--p", "2", "--s", "21", "--brute"])
    assert code == 2
    assert "cap" in err
    code, _, err = run_cli(capsys, ["verify", "--pmax", "2", "--smax", "21"])
    assert code == 2


def test_verify_caps_pmax_before_the_sieve(capsys, monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieve asked for {limit}")

    monkeypatch.setattr(cli, "primes_up_to", no_sieve)
    for pmax in (cli.PMAX_CAP + 1, 10**30):
        code, out, err = run_cli(capsys, ["verify", "--pmax", str(pmax), "--smax", "1"])
        assert code == 2
        assert out == ""
        assert "cap" in err


BIG_P = "1000000000000000000000007"
EXPONENTS_2500 = ",".join(map(str, range(2500)))


@pytest.mark.parametrize(
    "argv",
    [
        # unbounded, these printed 108 MB, 60 MB and 10 MB
        ["emax", "--p", BIG_P, "--s", "3000", "--format", "csv"],
        ["emin", "--p", BIG_P, "--s", "3000", "--format", "csv"],
        ["emax", "--p", "2", "--s", "20000"],
        ["emin", "--p", "2", "--s", "20000"],
        ["trace", "--p", "2", "--s", "4000", "--delta", "3999"],
        # 3162 numbers of 3163 bits, one s past the cap at p = 2
        ["emax", "--p", "2", "--s", "3162"],
        ["energy", "--p", "2", "--s", "4000", "--exponents", EXPONENTS_2500],
    ],
)
def test_output_cap_refuses_before_any_number_theory(capsys, monkeypatch, argv):
    def no_order(p, s):
        raise AssertionError(f"PrimePowerOrder({p}, {s}) built")

    monkeypatch.setattr(cli, "PrimePowerOrder", no_order)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "output cap" in err


def test_output_cap_admits_output_at_the_cap(capsys):
    # 2498 divisors, n and the energy: 2500 numbers of bit_length(2^3999) =
    # 4000 bits, exactly OUTPUT_BITS_CAP.
    assert 2500 * 4000 == cli.OUTPUT_BITS_CAP
    argv = ["energy", "--p", "2", "--s", "3999", "--exponents", EXPONENTS_2500[:-10]]
    assert len(argv[-1].split(",")) == 2498
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert "energy (formula)" in out
    # Two more divisors pass the cap.
    argv[-1] = EXPONENTS_2500
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "2502 numbers" in err


def test_energy_output_cap_counts_n_and_the_energy():
    # Two divisors of 2^3000000 alone stay under the cap, but n and the
    # energy are printed too: four numbers of 3000001 bits pass it. Counting
    # the divisors alone, this ran for about 48 s.
    proc = subprocess.run(
        [sys.executable, "-m", "icgraph", "energy", "--p", "2", "--s", "3000000",
         "--exponents", "0,5"],
        capture_output=True,
        env=src_env(),
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert b"4 numbers of up to 3000001 bits exceed the output cap" in proc.stderr


def test_output_cap_leaves_invalid_orders_to_their_own_checks(capsys):
    for argv in (["emax", "--p", "2", "--s", "-100000"], ["emin", "--p", "-7", "--s", "99999"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 1, argv
        assert "usage error" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        # a 25-digit prime p: trial division would not finish
        (["emin", "--p", "1000000000000000000000007", "--s", "2"], 0),
        # the semiprime (10^9 + 7)(10^9 + 9): no factor below the trial bound
        (["energy", "--n", "1000000016000000063", "--divisors", "1"], 2),
        # a prime square beyond the trial bound still factors
        (["energy", "--n", str((10**9 + 7) ** 2), "--divisors", "1"], 0),
    ],
)
def test_large_numbers_end_in_bounded_time(argv, expected):
    proc = subprocess.run(
        [sys.executable, "-m", "icgraph", *argv], capture_output=True, timeout=20
    )
    assert proc.returncode == expected, proc.stderr


def test_resource_errors_abbreviate_long_numbers(capsys):
    # (2^4423 - 1)(2^4253 - 1) has 2612 digits and no factor below the
    # trial bound; the message names its first 20 digits and its length.
    n = (2**4423 - 1) * (2**4253 - 1)
    code, out, err = run_cli(capsys, ["energy", "--n", str(n), "--divisors", "1"])
    assert code == 2
    assert out == ""
    assert err == (
        f"resource limit: {str(n)[:20]}… (2612 digits) has no prime factor "
        "<= 1000000 and is not a prime power\n"
    )


def test_usage_errors_abbreviate_long_numbers(capsys):
    n = str(10**3000)
    code, out, err = run_cli(capsys, ["energy", "--n", n, "--divisors", "7"])
    assert (code, out) == (1, "")
    assert err == f"usage error: 7 does not divide n = {n[:20]}\u2026 (3001 digits)\n"


def test_format_and_parse_ints_roundtrip():
    assert format_ints((5, 1, 3)) == "(5,1,3)"
    assert _int_list("(5,1,3)") == (5, 1, 3)
    assert _int_list("5, 1, 3") == (5, 1, 3)
    assert _int_list("7") == (7,)


def test_parse_ints_rejects_garbage():
    with pytest.raises(UsageError):
        _int_list("")
    with pytest.raises(UsageError):
        _int_list("1,a,3")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["energy", "--p", "2", "--s", "3", "--exponents", "()"], "no integers found in '()'"),
        (
            ["energy", "--n", "12", "--divisors", "1,a"],
            "bad integer list '1,a': invalid literal for int() with base 10: 'a'",
        ),
        (
            ["trace", "--p", "2", "--s", "3", "--delta", "x"],
            "bad integer list 'x': invalid literal for int() with base 10: 'x'",
        ),
        (["energy", "--n", "x", "--divisors", "1"], "argument --n: invalid int value: 'x'"),
    ],
)
def test_unparsable_arguments_name_themselves(capsys, argv, message):
    assert run_cli(capsys, argv) == (1, "", f"usage error: {message}\n")


def test_unparsable_long_arguments_show_their_first_20_characters(capsys):
    # 4301 digits: one past the int-to-str limit, which argv parsing keeps.
    sevens = "7" * 4301
    code, out, err = run_cli(capsys, ["energy", "--n", "12", "--divisors", f"1,{sevens}"])
    assert (code, out) == (1, "")
    shown = "'1,777777777777777777'\u2026 (4303 characters)"
    assert err.startswith(f"usage error: bad integer list {shown}: ")
    assert len(err) < 250
    code, out, err = run_cli(capsys, ["energy", "--n", sevens, "--divisors", "1"])
    assert (code, out) == (1, "")
    shown = "'77777777777777777777'\u2026 (4301 characters)"
    assert err == f"usage error: argument --n: invalid int value: {shown}\n"


def test_closed_form_mismatch_exits_3(capsys, monkeypatch):
    value, tuples = cli.emax_closed(cli.PrimePowerOrder(2, 3))
    monkeypatch.setattr(cli, "emax_closed", lambda order: (value + 2, tuples))
    code, out, _ = run_cli(
        capsys, ["emax", "--p", "2", "--s", "3", "--brute", "--format", "json"]
    )
    assert code == 3
    assert json.loads(out)["results"]["agreement"] is False


def test_oracle_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "energy_prime_power", lambda order, a: 4)
    code, out, _ = run_cli(
        capsys,
        [
            "energy",
            "--p", "5",
            "--s", "4",
            "--exponents", "0,1,3",
            "--method", "both",
            "--format", "json",
        ],
    )
    assert code == 3
    record = json.loads(out)
    assert record["results"]["agreement"] is False


def test_verify_failure_exits_3(capsys, monkeypatch):
    ok_problems = (False, ["emax mismatch"])
    # cli imports verify_theorem when verify runs, so the fault goes into search.
    monkeypatch.setattr(search, "verify_theorem", lambda order: ok_problems)
    code, out, _ = run_cli(capsys, ["verify", "--pmax", "2", "--smax", "1"])
    assert code == 3


# ---------------------------------------------------------------- process level

# A brute force near the exponent cap.
SUBPROCESS_ARGS = [
    "emax",
    "--p", "2",
    "--s", "18",
    "--brute",
    "--format", "json",
]


def _run_subprocess(extra=()):
    return subprocess.run(
        [sys.executable, "-m", "icgraph", *extra, *SUBPROCESS_ARGS],
        capture_output=True,
        timeout=120,
    )


def test_stdout_is_byte_deterministic_across_runs():
    first = _run_subprocess()
    second = _run_subprocess()
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_timing_goes_to_stderr_only():
    plain = _run_subprocess()
    timed = _run_subprocess(extra=("--timing",))
    assert plain.stdout == timed.stdout
    assert b"elapsed" not in plain.stderr
    assert b"elapsed" in timed.stderr


def _unwritable_stdout(kind):
    """A pipe whose read end is already closed, or /dev/full (skipped where absent).

    "closed-fd" passes the pipe too; the child closes its fd 1 before it starts.
    """
    if kind == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        return os.open("/dev/full", os.O_WRONLY)
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("kind", ["closed-pipe", "dev-full", "closed-fd"])
@pytest.mark.parametrize("argv", [
    ["emin", "--p", "2", "--s", "5"],
    ["spectrum", "--n", "200000", "--divisors", "1", "--format", "csv"],
])
def test_unwritable_stdout_exits_2(kind, argv):
    fd = _unwritable_stdout(kind)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "icgraph", *argv],
            stdout=fd, stderr=subprocess.PIPE, env=src_env(), timeout=60,
            preexec_fn=(lambda: os.close(1)) if kind == "closed-fd" else None,
        )
    finally:
        os.close(fd)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    assert err.startswith("output error: ") and err.count("\n") == 1, err


def test_console_script_entry_point():
    # Without an installed script, run the function it points at.
    script = shutil.which("icgraph")
    entry = [script] if script else [
        sys.executable, "-c", "from icgraph.cli import main_entry; main_entry()"
    ]
    proc = subprocess.run(
        [*entry, "energy", "--p", "2", "--s", "1", "--exponents", "0"],
        capture_output=True,
        env=src_env(),
        timeout=60,
    )
    assert proc.returncode == 0
    assert b"energy" in proc.stdout
