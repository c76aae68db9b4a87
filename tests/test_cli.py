"""Command line surface: formats, determinism, exit codes."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from icgraph import cli, numtheory, search
from icgraph.cli import UsageError, _int_list, format_ints
from icgraph.numtheory import MILLER_RABIN_BOUND

from helpers import UNPROVABLE_P, src_env


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


def test_resource_caps_exit_2(capsys, monkeypatch):
    # --brute prints 2s + 2 numbers of up to s + 1 bits at p = 2: the closed
    # form's s, as many for the search's maximizer sets, its emax and examined.
    s = 2235
    assert (2 * s + 2) * (s + 1) <= cli.OUTPUT_BITS_CAP < (2 * s + 4) * (s + 2)
    code, out, _ = run_cli(capsys, ["emax", "--p", "2", "--s", str(s), "--brute"])
    assert code == 0
    assert out.endswith("agreement = yes\n")

    def no_search(order):
        raise AssertionError(f"searched {order}")

    # cli imports the search when --brute runs, so the fault goes into search.
    monkeypatch.setattr(search, "brute_force_emax_prime_power", no_search)
    code, out, err = run_cli(capsys, ["emax", "--p", "2", "--s", str(s + 1), "--brute"])
    assert (code, out) == (2, "")
    assert "output cap" in err
    # verify charges each prime's smax cases as emin --p p --s smax prints
    # them: smax numbers of up to smax + 1 bits at p = 2, so 3161 is admitted
    # and 3162 refused, before any hull walk.
    smax = 3161
    assert smax * (smax + 1) <= cli.OUTPUT_BITS_CAP < (smax + 1) * (smax + 2)
    walks = []

    def no_walk(p, smax):
        walks.append((p, smax))
        return iter(())

    monkeypatch.setattr(search, "_prime_power_hulls", no_walk)
    code, out, _ = run_cli(capsys, ["verify", "--pmax", "2", "--smax", str(smax)])
    assert (code, out, walks) == (0, "all 0 cases agree\n", [(2, smax)])
    code, out, err = run_cli(capsys, ["verify", "--pmax", "2", "--smax", str(smax + 1)])
    assert (code, out, walks) == (2, "", [(2, smax)])
    assert err == (
        "resource limit: --smax 3162 exceeds the output cap of 10000000 bits "
        "for the primes up to 2\n"
    )


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
        # 3 numbers of 1000002 and 2000001 bits: under the cap counted bit
        # for bit, but str() is quadratic and these printed in 5.6 s and 22.5 s
        ["energy", "--p", "2", "--s", "1000001", "--exponents", "0"],
        ["energy", "--p", "2", "--s", "2000000", "--exponents", "0"],
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


def test_output_cap_counts_long_numbers_by_str_blocks(capsys):
    # Three numbers of b bits cost 3 * b * ceil(b / 14285): 15 blocks admit
    # b = 214275 = 15 * 14285, one more bit takes 16.
    assert cli.STR_BLOCK_BITS == (10**4300).bit_length()
    argv = ["energy", "--p", "2", "--s", "214274", "--exponents", "0", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    record = json.loads(out)
    assert record["results"]["energy"] == record["inputs"]["n"]  # E(2^s, {1}) = 2^s
    argv[4] = "214275"
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "3 numbers of up to 214276 bits exceed the output cap" in err
    # Numbers of two blocks still print.
    argv = ["energy", "--p", "2", "--s", "20000", "--exponents", "0,19999"]
    assert run_cli(capsys, argv)[0] == 0


@pytest.mark.parametrize(
    "p",
    [
        MILLER_RABIN_BOUND,
        10**28 + 1,  # composite: exit 1 before the bound was checked
        UNPROVABLE_P,
    ],
    ids=["bound", "composite", "4300-digits"],
)
def test_p_past_the_primality_bound_is_refused_before_any_primality_test(
    capsys, monkeypatch, p
):
    # check_prime refuses p before is_prime can spend seconds on it.
    def no_test(n):
        raise AssertionError("is_prime called")

    monkeypatch.setattr(numtheory, "is_prime", no_test)
    code, out, err = run_cli(capsys, ["emin", "--p", str(p), "--s", "2"])
    assert (code, out) == (2, "")
    assert err.endswith(f" is not below {MILLER_RABIN_BOUND}, the bound of exact primality\n")


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
    # No root of it below the exact bound is an exact one, and no root
    # past it is tested for primality.
    n = (2**4423 - 1) * (2**4253 - 1)
    code, out, err = run_cli(capsys, ["energy", "--n", str(n), "--divisors", "1"])
    assert code == 2
    assert out == ""
    assert err == (
        f"resource limit: {str(n)[:20]}… (2612 digits) has no prime factor "
        "<= 1000000 and is not a power of a prime below 3317044064679887385961981\n"
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


def test_a_bad_list_entry_is_shown_with_its_full_length(capsys):
    # int() cuts its own message to 200 characters, which read "(199 digits)".
    code, out, err = run_cli(
        capsys, ["energy", "--n", "12", "--divisors", "1," + "7" * 300 + "x"]
    )
    assert (code, out) == (1, "")
    assert err == (
        "usage error: bad integer list '1,777777777777777777'\u2026 (303 characters): "
        "invalid literal for int() with base 10: '77777777777777777777\u2026 (300 digits)x'\n"
    )
    # A valid literal past the int-to-str limit keeps int()'s own reason.
    _, _, err = run_cli(capsys, ["energy", "--n", "12", "--divisors", "1," + "7" * 4301])
    assert "invalid literal" not in err and "Exceeds the limit (4300 digits)" in err


LONG = "7" * 4301  # one past the int-to-str limit that argv parsing keeps
BIG = str(10**3000)
BIG_SHOWN = "10000000000000000000\u2026 (3001 digits)"
LONG_QUOTED = "'77777777777777777777'\u2026 (4301 characters)"


@pytest.mark.parametrize(
    "argv, code, shown",
    [
        (
            ["energy", "--n", "12", "--divisors", "1", LONG],
            1,
            "unrecognized arguments: 77777777777777777777\u2026 (4301 digits)",
        ),
        (["energy", "--n", "12", "--divisors", "1", "--method", LONG], 1, LONG_QUOTED),
        ([LONG], 1, f"argument subcommand: invalid choice: {LONG_QUOTED}"),
        (
            ["energy", "--n", "12", "--divisors", "1," + "7" * 300 + "x"],
            1,
            "bad integer list '1,777777777777777777'\u2026 (303 characters)",
        ),
        (["verify", "--pmax", BIG, "--smax", "1"], 2, f"--pmax {BIG_SHOWN} exceeds"),
        (["verify", "--pmax", "3", "--smax", BIG], 2, f"--smax {BIG_SHOWN} exceeds"),
        (["verify", "--pmax", "-" + BIG, "--smax", "1"], 1, f"got -{BIG_SHOWN}\n"),
        (["emax", "--p", "2", "--s", BIG], 2, f"{BIG_SHOWN} numbers of up to {BIG_SHOWN} bits"),
        (
            ["trace", "--p", "2", "--s", "5", "--delta", "1," + BIG],
            1,
            f"delta vector (1, {BIG_SHOWN}) sums to {BIG_SHOWN}",
        ),
        (
            ["energy", "--p", "2", "--s", "5", "--exponents", "0," + BIG],
            1,
            f"largest exponent {BIG_SHOWN} exceeds",
        ),
        (
            ["energy", "--n", "12", "--divisors", "1", "--method=" + "w" * 80],
            1,
            "invalid choice: 'wwwwwwwwwwwwwwwwwwww'\u2026 (80 characters) (choose from",
        ),
        (
            ["energy", "--n", "12", "--divisors", "1", "w" * 80],
            1,
            "unrecognized arguments: wwwwwwwwwwwwwwwwwwww\u2026 (80 characters)\n",
        ),
    ],
    ids=[
        "unrecognized", "method", "subcommand", "list", "pmax", "smax", "negative-pmax",
        "emax-s", "delta", "exponents", "method=word", "unrecognized-word",
    ],
)
def test_every_error_shows_long_arguments_and_numbers_briefly(capsys, argv, code, shown):
    # Unshortened, the first ten wrote 315 to 6081 bytes of stderr.
    exit_code, out, err = run_cli(capsys, argv)
    assert (exit_code, out) == (code, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) <= 200
    assert shown in err


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
    # cli imports the closed-form check when verify runs, so the fault goes into search.
    monkeypatch.setattr(search, "_discrepancies", lambda order, closed, emax, keys: ["mismatch"])
    code, out, _ = run_cli(capsys, ["verify", "--pmax", "2", "--smax", "1"])
    assert code == 3


def _swap_first_maximizer(real):
    # The right maximum, with the first maximizer tuple swapped for (0,).
    def patched(order):
        value, tuples = real(order)
        return value, [(0,)] + tuples[1:]

    return patched


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (
            ["verify", "--pmax", "3", "--smax", "3"],
            "p=2 s=1 emax=2 ok\n"
            "p=2 s=2 emax=6 MISMATCH\n"
            "  2^2: closed-form maximizers ((1,),) != enumerated ((1, 2),)\n"
            "p=2 s=3 emax=14 MISMATCH\n"
            "  2^3: closed-form maximizers ((1,), (1, 2, 4)) != enumerated ((1, 2, 4), (1, 4))\n"
            "p=3 s=1 emax=4 ok\n"
            "p=3 s=2 emax=16 MISMATCH\n"
            "  3^2: closed-form maximizers ((1,),) != enumerated ((1, 3),)\n"
            "p=3 s=3 emax=64 MISMATCH\n"
            "  3^3: closed-form maximizers ((1,),) != enumerated ((1, 9),)\n"
            "6 cases, 4 failures\n",
        ),
        (
            ["emax", "--p", "2", "--s", "5", "--brute"],
            "order n = 2^5 = 32\n"
            "emax = 78\n"
            "maximizer a = (0)  D = (1)\n"
            "maximizer a = (0,1,3,4)  D = (1,2,8,16)\n"
            "brute force over 31 sets: emax = 78\n"
            "agreement = NO\n",
        ),
    ],
    ids=["verify", "emax-brute"],
)
def test_a_wrong_maximizer_with_the_right_maximum_exits_3(capsys, monkeypatch, argv, stdout):
    # Stdout captured from the divisor-set comparison; the integer
    # comparison must print the same bytes.
    monkeypatch.setattr(cli, "emax_closed", _swap_first_maximizer(cli.emax_closed))
    assert run_cli(capsys, argv)[:2] == (3, stdout)


def test_verify_walks_one_hull_per_prime(capsys, monkeypatch):
    calls = {"hull": 0, "closed": 0}

    def counting(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)

        return wrapped

    monkeypatch.setattr(search, "_upper_hull", counting("hull", search._upper_hull))
    closed = counting("closed", cli.emax_closed)
    monkeypatch.setattr(cli, "emax_closed", closed)
    monkeypatch.setattr(search, "emax_closed", closed)
    primality, is_prime = [], numtheory.is_prime
    monkeypatch.setattr(numtheory, "is_prime", lambda n: primality.append(n) or is_prime(n))
    code, out, _ = run_cli(capsys, ["verify", "--pmax", "100", "--smax", "20"])
    assert (code, out.splitlines()[-1]) == (0, "all 500 cases agree")
    # 25 primes up to 100, one hull step per exponent, one closed form per case;
    # a search per case would take 25 * (1 + 2 + ... + 20) steps.
    assert calls == {"hull": 25 * 20, "closed": 25 * 20}
    # The sieve proves each prime; a checked order per case tested it 20 times.
    assert len(primality) <= len(set(primality)) <= 25


# ---------------------------------------------------------------- process level

# A brute force over 2^18 - 1 divisor sets.
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
