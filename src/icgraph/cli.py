"""Command-line front end.

Subcommands: energy, emax, emin, trace, classify, verify, spectrum.
Output formats: table (default), json, csv. Output on stdout is
byte-for-byte deterministic for identical inputs and flags; wall-clock
timing goes to stderr, and only under --timing.

JSON carries every energy, order and divisor as a decimal string so no
consumer is forced through a lossy double; small structural numbers
(s, r, step, u, v, exponents, delta entries, eigenvalues) stay JSON
numbers, and so does brute_examined, 2^s - 1, which follows from s.
CSV for trace has the fixed column order step,label,u,v,before,after,
r,energy; other commands emit key,value rows (spectrum: k,eigenvalue;
verify: p,s,ok,emax). Numbers print in full, whatever their digit count.

Exit codes: 0 success, 1 usage error, 2 resource cap exceeded or
stdout could not be written, 3 verification discrepancy.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys
import time
from collections import Counter
from typing import Optional, Sequence

from .energy import (
    classify_energy,
    emax_closed,
    emin_closed,
    energy_general,
    energy_prime_power,
    koolen_moulton_check,
    spectrum_gcd_graph,
)
from .model import PrimePowerOrder, check_divisor_set, delta_inverse, divisor_set_of
from .numtheory import ResourceLimitError, factorize, primes_up_to

# search and transform (and json, csv) load only in the commands that use
# them, so a command pays at start-up for its own layers alone.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_DISCREPANCY = 3

PMAX_CAP = 10**4  # verify sieves p <= pmax before sweeping
OUTPUT_BITS_CAP = 10**7  # numbers printed x bits of p^s, checked before p is tested
STR_BLOCK_BITS = 14285  # bits of 10**4300, CPython's default str() digit limit


class UsageError(Exception):
    """Bad command line or invalid instance; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is taken by resource
    # caps here, so route parse errors through UsageError instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _render(record: dict, lines: list[str], rows: Optional[list[list]], fmt: str) -> None:
    """Write one command's output; rows None means key,value rows of its results."""
    if fmt == "json":
        import json

        sys.stdout.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    elif fmt == "csv":
        import csv

        if rows is None:
            rows = [["key", "value"]]
            rows += [[key, _flat(value)] for key, value in sorted(record["results"].items())]
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _flat(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(_flat(v) for v in value)
    return str(value)


def _output_charge(p: int, s: int, entries: int) -> tuple[int, int]:
    """(bits, charge) of `entries` printed numbers up to p**s, against OUTPUT_BITS_CAP.

    bits = s * bit_length(p - 1) + 1 bounds their bits (exactly at p = 2)
    without computing p**s or testing p. str() is quadratic in a number's length,
    so each number is charged bits * ceil(bits / STR_BLOCK_BITS).
    """
    bits = s * (p - 1).bit_length() + 1
    return bits, entries * bits * -(-bits // STR_BLOCK_BITS)


def _order(p: int, s: int, entries: int) -> PrimePowerOrder:
    """PrimePowerOrder(p, s), refused first past the output cap.

    `entries` numbers are charged (_output_charge) before PrimePowerOrder checks p and s.
    """
    if p >= 2 and s >= 1:
        bits, charge = _output_charge(p, s, entries)
        if charge > OUTPUT_BITS_CAP:
            raise ResourceLimitError(
                f"{entries} numbers of up to {bits} bits exceed the output cap of "
                f"{OUTPUT_BITS_CAP} bits"
            )
    return PrimePowerOrder(p, s)


def _instance(n: int, divisors) -> tuple[tuple[int, ...], list[str], list[str]]:
    """The checked divisor set of (n, D), D as decimal strings, and the header lines.

    The table reuses the record's decimal strings: str() of a big int
    takes time quadratic in its digits.
    """
    ds = check_divisor_set(n, divisors)
    strings = [str(d) for d in ds]
    return ds, strings, [f"order n = {n}", f"divisor set D = {format_ints(strings)}"]


def _yes(flag: bool) -> str:
    return "yes" if flag else "NO"


def format_ints(xs: Sequence[int]) -> str:
    """Render a tuple/vector/set as (x1,x2,...), the notation the CLI echoes."""
    return "(" + ",".join(map(str, xs)) + ")"


def _int_list(text: str) -> tuple[int, ...]:
    """Parse a comma separated int list, with or without surrounding parens."""
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    parts = [piece.strip() for piece in t.split(",") if piece.strip()]
    if not parts:
        raise UsageError(f"no integers found in {text!r}")
    values = []
    for piece in parts:
        try:
            values.append(int(piece))
        except ValueError as exc:
            # int() cuts a bad literal to 200 characters; name it whole, for _brief.
            if str(exc).startswith("invalid literal"):
                exc = f"invalid literal for int() with base 10: {piece!r}"
            raise UsageError(f"bad integer list {text!r}: {exc}") from None
    return tuple(values)


def cmd_energy(args):
    # One instance, as (--p, --s, --exponents) or as (--n, --divisors); a
    # prime power n gets its order and exponent tuple too.
    by_pp = args.p is not None or args.s is not None or args.exponents is not None
    by_n = args.n is not None or args.divisors is not None
    if by_pp and by_n:
        raise UsageError("give either --p/--s/--exponents or --n/--divisors, not both")
    if by_pp:
        if args.p is None or args.s is None or args.exponents is None:
            raise UsageError("--p, --s and --exponents belong together")
        # the divisors, then n and the energy
        order = _order(args.p, args.s, len(args.exponents) + 2)
        exponents, n = args.exponents, order.n
        ds, divisors, lines = _instance(n, divisor_set_of(exponents, order))
    else:
        if args.n is None or args.divisors is None:
            raise UsageError("--n and --divisors belong together")
        n = args.n
        ds, divisors, lines = _instance(n, args.divisors)
        fac = factorize(n)
        order = PrimePowerOrder(*fac[0]) if len(fac) == 1 else None
        # Each d divides p^s, so it is p^e exactly, and the float log is
        # far closer than 1/2 to e for any d that fits in memory.
        exponents = tuple(round(math.log(d, order.p)) for d in ds) if order else None
    method = args.method or ("formula" if order is not None else "spectral")
    if method in ("formula", "both") and order is None:
        raise UsageError(f"--method {method} needs a prime power order, {n} is not one")

    if exponents is not None:
        lines.append(f"exponent tuple a = {format_ints(exponents)}")
    results: dict = {}
    if method in ("formula", "both"):
        results["energy_formula"] = str(energy_prime_power(order, exponents))
        lines.append(f"energy (formula)  = {results['energy_formula']}")
    if method in ("spectral", "both"):
        results["energy_spectral"] = str(energy_general(n, ds))
        lines.append(f"energy (spectral) = {results['energy_spectral']}")
    if method == "both":
        results["agreement"] = results["energy_formula"] == results["energy_spectral"]
        lines.append(f"agreement = {_yes(results['agreement'])}")
    results["energy"] = results.get("energy_formula", results.get("energy_spectral"))

    record = {
        "inputs": {
            "n": str(n),
            "divisors": divisors,
            "exponents": list(exponents) if exponents is not None else None,
            "p": str(order.p) if order else None,
            "s": order.s if order else None,
            "method": method,
        },
        "results": results,
    }
    return record, lines, None


def cmd_emax(args):
    # --brute adds its maximizer sets (s numbers, as the closed form's), its emax and examined.
    order = _order(args.p, args.s, 2 * args.s + 2 if args.brute else args.s)
    value, tuples = emax_closed(order)
    sets = [divisor_set_of(t, order) for t in tuples]
    results: dict = {
        "emax": str(value),
        "maximizer_exponents": [list(t) for t in tuples],
        "maximizer_divisor_sets": [[str(d) for d in ds] for ds in sets],
    }
    lines = [f"order n = {order} = {order.n}", f"emax = {results['emax']}"]
    for t, ds in zip(tuples, results["maximizer_divisor_sets"]):
        lines.append(f"maximizer a = {format_ints(t)}  D = {format_ints(ds)}")
    if args.brute:
        from .search import _discrepancies, brute_force_emax_prime_power

        report = brute_force_emax_prime_power(order)
        keys = map(sum, report.maximizers)
        agreement = not _discrepancies(order, (value, tuples), report.emax, keys)
        results["brute_emax"] = str(report.emax)
        results["brute_maximizer_divisor_sets"] = [
            [str(d) for d in ds] for ds in report.maximizers
        ]
        results["brute_examined"] = report.examined
        results["agreement"] = agreement
        lines.append(f"brute force over {report.examined} sets: emax = {report.emax}")
        lines.append(f"agreement = {_yes(agreement)}")

    record = {
        "inputs": {"p": str(order.p), "s": order.s, "brute": bool(args.brute)},
        "results": results,
    }
    return record, lines, None


def cmd_emin(args):
    order = _order(args.p, args.s, args.s)
    value, sets = emin_closed(order)
    results = {
        "emin": str(value),
        "minimizer_divisor_sets": [[str(d) for d in ds] for ds in sets],
    }
    record = {"inputs": {"p": str(order.p), "s": order.s}, "results": results}
    lines = [
        f"order n = {order} = {order.n}",
        f"emin = {results['emin']}",
        "minimizers: " + " ".join(format_ints(ds) for ds in results["minimizer_divisor_sets"]),
    ]
    return record, lines, None


def cmd_trace(args):
    from .transform import normalize

    order = _order(args.p, args.s, args.s)
    trace = normalize(args.delta, order)
    if trace.steps:
        energy = trace.steps[0].energy_before
    else:
        energy = energy_prime_power(order, delta_inverse(trace.initial))

    # A step's "before" (vector and energy) is the previous step's "after",
    # so each is formatted once. csv columns are step fields, vectors
    # written as (x,...); the table drops "before", prints None as "-" and
    # starts with the initial vector.
    vector, energy, r = format_ints(trace.initial), str(energy), len(trace.initial) + 1
    initial = {"vector": list(trace.initial), "r": r, "energy": energy}
    steps = []
    rows = [["step", "label", "u", "v", "before", "after", "r", "energy"]]
    table = [
        ["step", "label", "u", "v", "vector", "r", "energy"],
        ["0", "-", "-", "-", vector, str(r), energy],
    ]
    for i, step in enumerate(trace.steps, 1):
        label, r = step.label.value, len(step.after) + 1
        after, after_energy = format_ints(step.after), str(step.energy_after)
        steps.append({
            "step": i, "label": label, "u": step.u, "v": step.v,
            "before": list(step.before), "after": list(step.after), "r": r,
            "energy_before": energy, "energy_after": after_energy, "strict": step.strict,
        })
        rows.append([i, label, step.u, step.v, vector, after, r, after_energy])
        head = ["-" if cell is None else str(cell) for cell in (i, label, step.u, step.v)]
        table.append([*head, after, str(r), after_energy])
        vector, energy = after, after_energy
    record = {
        "inputs": {"p": str(order.p), "s": order.s, "delta": list(trace.initial)},
        "initial": initial,
        "steps": steps,
        "terminal": {"vector": list(trace.terminal), "r": r, "energy": energy},
    }
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return record, lines, rows


def cmd_classify(args):
    n = args.n
    ds, divisors, lines = _instance(n, args.divisors)
    energy = energy_general(n, ds)
    threshold = 2 * (n - 1)
    results = {
        "energy": str(energy),
        "threshold": str(threshold),
        "classification": classify_energy(n, energy),
        "koolen_moulton_ok": koolen_moulton_check(n, energy),
    }
    record = {"inputs": {"n": str(n), "divisors": divisors}, "results": results}
    lines += [
        f"energy = {results['energy']}",
        f"complete graph threshold 2(n-1) = {threshold}",
        f"classification = {results['classification']}",
        f"koolen-moulton bound satisfied = {_yes(results['koolen_moulton_ok'])}",
    ]
    return record, lines, None


def cmd_verify(args):
    from .search import _discrepancies, _hull_maximum, _prime_power_hulls

    if args.pmax > PMAX_CAP:
        raise ResourceLimitError(f"--pmax {args.pmax} exceeds the sweep cap {PMAX_CAP}")
    if args.pmax < 2:
        raise UsageError(f"--pmax must be >= 2, got {args.pmax}")
    if args.smax < 1:
        raise UsageError(f"--smax must be >= 1, got {args.smax}")
    primes, smax = primes_up_to(args.pmax), args.smax
    # Each prime's smax cases are charged as emin --p p --s smax prints them.
    if sum(_output_charge(p, smax, smax)[1] for p in primes) > OUTPUT_BITS_CAP:
        raise ResourceLimitError(
            f"--smax {smax} exceeds the output cap of {OUTPUT_BITS_CAP} bits "
            f"for the primes up to {args.pmax}"
        )
    cases, lines = [], []
    rows = [["p", "s", "ok", "emax"]]
    for p in primes:
        for s, hull in enumerate(_prime_power_hulls(p, smax), 1):
            order = PrimePowerOrder._proven(p, s)  # the sieve proved p prime
            closed = emax_closed(order)
            problems = _discrepancies(order, closed, *_hull_maximum(p, s, smax, hull))
            ok, value = not problems, closed[0]
            cases.append(
                {"p": str(p), "s": s, "ok": ok, "emax": str(value), "problems": problems}
            )
            lines.append(f"p={p} s={s} emax={value} {'ok' if ok else 'MISMATCH'}")
            lines.extend(f"  {problem}" for problem in problems)
            rows.append([p, s, _flat(ok), value])
    failures = sum(not c["ok"] for c in cases)
    lines.append(
        f"{len(cases)} cases, {failures} failures" if failures else f"all {len(cases)} cases agree"
    )
    record = {
        "inputs": {"pmax": args.pmax, "smax": args.smax},
        "cases": cases,
        "results": {"cases": len(cases), "failures": failures, "all_ok": failures == 0},
    }
    return record, lines, rows


def cmd_spectrum(args):
    n = args.n
    ds, divisors, lines = _instance(n, args.divisors)
    spec = spectrum_gcd_graph(n, ds)
    energy = sum(abs(x) for x in spec)
    distinct = sorted(Counter(spec).items())
    record = {
        "inputs": {"n": str(n), "divisors": divisors},
        "results": {
            "degree": spec[0],
            "energy": str(energy),
            "distinct": [[lam, mult] for lam, mult in distinct],
        },
        "eigenvalues": spec,
    }
    lines += [f"degree = {spec[0]}", "eigenvalue . multiplicity:"]
    lines.extend(f"  {lam} . {mult}" for lam, mult in reversed(distinct))
    lines.append(f"energy = {energy}")
    return record, lines, [["k", "eigenvalue"], *enumerate(spec)]


# Every option's argparse settings, shared by the subcommands that take it.
OPTIONS = {
    **dict.fromkeys(("--p", "--s", "--n", "--pmax", "--smax"), {"type": int}),
    **dict.fromkeys(("--exponents", "--divisors", "--delta"), {"type": _int_list}),
    "--method": {"choices": ("formula", "spectral", "both")},
    "--brute": {"action": "store_true", "help": "cross-check by enumeration"},
}


PP = ("--p", "--s")
INSTANCE = ("--n", "--divisors")
# Each subcommand: its function, help, required options and optional ones.
COMMANDS = {
    "energy": (
        cmd_energy, "energy of one gcd graph", (), (*PP, "--exponents", *INSTANCE, "--method")
    ),
    "emax": (cmd_emax, "maximal energy over divisor sets of p^s", PP, ("--brute",)),
    "emin": (cmd_emin, "minimal energy over divisor sets of p^s", PP, ()),
    "trace": (cmd_trace, "rewrite a delta vector to the maximum", (*PP, "--delta"), ()),
    "classify": (cmd_classify, "hyper/hypoenergetic classification", INSTANCE, ()),
    "verify": (cmd_verify, "closed forms vs brute force sweep", ("--pmax", "--smax"), ()),
    "spectrum": (cmd_spectrum, "all eigenvalues of one gcd graph", INSTANCE, ()),
}


def build_parser() -> argparse.ArgumentParser:
    description = "Exact energies of integral circulant (gcd) graphs."
    parser = _Parser(prog="icgraph", description=description)
    parser.add_argument("--timing", action="store_true", help="print wall time to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help, required, optional) in COMMANDS.items():
        # --help lists options in the order they are added: --format last.
        p = sub.add_parser(name, help=help)
        for flag in (*required, *optional):
            p.add_argument(flag, required=flag in required, **OPTIONS[flag])
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    return parser


def _brief(message: str, argv: Sequence[str]) -> str:
    """message with each argv token and digit run of over 50 characters cut to its first 20.

    Quoted tokens go first, as '<first 20>'\u2026 (N characters), then digit
    runs, as <first 20>\u2026 (N digits), then tokens still shown unquoted.
    The value of a --flag=value token is a token too.
    """
    pieces = {piece for token in argv for piece in (token, token.partition("=")[2])}
    tokens = sorted((piece for piece in pieces if len(piece) > 50), key=len, reverse=True)
    for token in tokens:
        message = message.replace(repr(token), f"{token[:20]!r}\u2026 ({len(token)} characters)")
    message = re.sub("[0-9]{51,}", lambda m: f"{m[0][:20]}\u2026 ({len(m[0])} digits)", message)
    for token in tokens:
        message = message.replace(token, f"{token[:20]}\u2026 ({len(token)} characters)")
    return message


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    # Outputs may have more digits than str(int) allows by default; lift
    # that limit for the command and its output only, not for argv.
    set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        args = build_parser().parse_args(argv)
        set_digits(0)
        record, lines, rows = COMMANDS[args.subcommand][0](args)
        record["command"] = args.subcommand
        try:
            if sys.stdout is None:  # fd 1 was closed before the interpreter started
                raise OSError(errno.EBADF, "stdout is closed")
            _render(record, lines, rows, args.format)
            sys.stdout.flush()
        except OSError as exc:  # stdout closed or full
            # The interpreter flushes stdout again at exit; let that go nowhere.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.close(devnull)
            print(f"output error: {exc}", file=sys.stderr)
            return EXIT_RESOURCE
    except (UsageError, ValueError) as exc:
        print(f"usage error: {_brief(str(exc), argv)}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {_brief(str(exc), argv)}", file=sys.stderr)
        return EXIT_RESOURCE
    finally:
        set_digits(digits)
    if args.timing:
        print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    results = record.get("results", {})
    if results.get("agreement") is False or results.get("all_ok") is False:
        return EXIT_DISCREPANCY
    return EXIT_OK


def main_entry() -> None:
    raise SystemExit(main())
