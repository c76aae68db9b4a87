"""Command-line front end.

Subcommands: energy, emax, emin, trace, classify, verify, spectrum.
Output formats: table (default), json, csv. Output on stdout is
byte-for-byte deterministic for identical inputs and flags; wall-clock
timing goes to stderr, and only under --timing.

JSON carries every energy, order and divisor as a decimal string so no
consumer is forced through a lossy double; small structural numbers
(s, r, step, u, v, exponents, delta entries, eigenvalues) stay JSON
numbers. CSV for trace has the fixed column order
step,label,u,v,before,after,r,energy; other commands emit key,value
rows (spectrum: k,eigenvalue; verify: p,s,ok,emax). Numbers print in
full, whatever their digit count.

Exit codes: 0 success, 1 usage error, 2 resource cap exceeded,
3 verification discrepancy.
"""

from __future__ import annotations

import argparse
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
from .model import (
    PrimePowerOrder,
    ResourceLimitError,
    check_divisor_set,
    delta_inverse,
    divisor_set_of,
    format_ints,
    parse_ints,
)
from .numtheory import factorize, primes_up_to

# search and transform (and json, csv) load only in the commands that use
# them, so a command pays at start-up for its own layers alone.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_DISCREPANCY = 3

PMAX_CAP = 10**4  # verify sieves p <= pmax before sweeping
OUTPUT_BITS_CAP = 10**7  # numbers printed x bits of p^s, checked before p is tested


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


def _check_output_size(p: int, s: int, entries: int) -> None:
    """Refuse a command that would print more than OUTPUT_BITS_CAP bits of numbers.

    It prints `entries` numbers of up to bit_length(p**s) bits each;
    s * bit_length(p - 1) + 1 bounds that from above (exactly at p = 2)
    without computing p**s or testing p. An out-of-range p or s is left
    to PrimePowerOrder's checks.
    """
    if p < 2 or s < 1:
        return
    bits = s * (p - 1).bit_length() + 1
    if entries * bits > OUTPUT_BITS_CAP:
        raise ResourceLimitError(
            f"{entries} numbers of up to {bits} bits exceed the output cap of "
            f"{OUTPUT_BITS_CAP} bits"
        )


def _int_list(value: str) -> tuple[int, ...]:
    try:
        return parse_ints(value)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


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
        _check_output_size(args.p, args.s, len(args.exponents))
        order = PrimePowerOrder(args.p, args.s)
        exponents = args.exponents
        n = order.n
        ds = divisor_set_of(exponents, order)
    else:
        if args.n is None or args.divisors is None:
            raise UsageError("--n and --divisors belong together")
        n = args.n
        ds = check_divisor_set(n, args.divisors)
        fac = factorize(n)
        order = PrimePowerOrder(*fac[0]) if len(fac) == 1 else None
        exponents = tuple(dict(factorize(d)).get(order.p, 0) for d in ds) if order else None
    method = args.method or ("formula" if order is not None else "spectral")
    if method in ("formula", "both") and order is None:
        raise UsageError(f"--method {method} needs a prime power order, {n} is not one")

    # Table lines reuse the record's decimal strings: str() of a big int
    # takes time quadratic in its digits.
    divisors = [str(d) for d in ds]
    lines = [f"order n = {n}", f"divisor set D = {format_ints(divisors)}"]
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
        lines.append(f"agreement = {'yes' if results['agreement'] else 'NO'}")
    results["energy"] = results.get("energy_formula", results.get("energy_spectral"))

    record = {
        "command": "energy",
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
    _check_output_size(args.p, args.s, args.s)
    order = PrimePowerOrder(args.p, args.s)
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
        from .search import brute_force_emax_prime_power

        report = brute_force_emax_prime_power(order, jobs=args.jobs)
        agreement = report.emax == value and sorted(report.maximizers) == sorted(sets)
        results["brute_emax"] = str(report.emax)
        results["brute_maximizer_divisor_sets"] = [
            [str(d) for d in ds] for ds in report.maximizers
        ]
        results["brute_examined"] = report.examined
        results["agreement"] = agreement
        lines.append(f"brute force over {report.examined} sets: emax = {report.emax}")
        lines.append(f"agreement = {'yes' if agreement else 'NO'}")

    record = {
        "command": "emax",
        "inputs": {"p": str(order.p), "s": order.s, "brute": bool(args.brute)},
        "results": results,
    }
    return record, lines, None


def cmd_emin(args):
    _check_output_size(args.p, args.s, args.s)
    order = PrimePowerOrder(args.p, args.s)
    value, sets = emin_closed(order)
    results = {
        "emin": str(value),
        "minimizer_divisor_sets": [[str(d) for d in ds] for ds in sets],
    }
    record = {"command": "emin", "inputs": {"p": str(order.p), "s": order.s}, "results": results}
    lines = [
        f"order n = {order} = {order.n}",
        f"emin = {results['emin']}",
        "minimizers: " + " ".join(format_ints(ds) for ds in results["minimizer_divisor_sets"]),
    ]
    return record, lines, None


def cmd_trace(args):
    from .transform import normalize

    _check_output_size(args.p, args.s, args.s)
    order = PrimePowerOrder(args.p, args.s)
    trace = normalize(args.delta, order)
    if trace.steps:
        first_energy, last_energy = trace.steps[0].energy_before, trace.steps[-1].energy_after
    else:
        first_energy = last_energy = energy_prime_power(order, delta_inverse(trace.initial))

    def point(vector, energy) -> dict:
        return {"vector": list(vector), "r": len(vector) + 1, "energy": str(energy)}

    steps = [
        {
            "step": i + 1,
            "label": step.label.value,
            "u": step.u,
            "v": step.v,
            "before": list(step.before),
            "after": list(step.after),
            "r": len(step.after) + 1,
            "energy_before": str(step.energy_before),
            "energy_after": str(step.energy_after),
            "strict": step.strict,
        }
        for i, step in enumerate(trace.steps)
    ]
    record = {
        "command": "trace",
        "inputs": {"p": str(order.p), "s": order.s, "delta": list(trace.initial)},
        "initial": point(trace.initial, first_energy),
        "steps": steps,
        "terminal": point(trace.terminal, last_energy),
    }
    # csv columns are step fields, vectors written as (x,...); the table
    # drops "before", prints None as "-" and starts with the initial vector.
    fields = ("step", "label", "u", "v", "before", "after", "r", "energy_after")
    rows = [["step", "label", "u", "v", "before", "after", "r", "energy"]]
    rows += [
        [format_ints(step[f]) if f in ("before", "after") else step[f] for f in fields]
        for step in steps
    ]
    start = record["initial"]
    table = [
        ["step", "label", "u", "v", "vector", "r", "energy"],
        ["0", "-", "-", "-", format_ints(start["vector"]), str(start["r"]), start["energy"]],
    ]
    table += [
        ["-" if cell is None else str(cell) for cell in row[:4] + row[5:]] for row in rows[1:]
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return record, lines, rows


def cmd_classify(args):
    n = args.n
    ds = check_divisor_set(n, args.divisors)
    energy = energy_general(n, ds)
    threshold = 2 * (n - 1)
    results = {
        "energy": str(energy),
        "threshold": str(threshold),
        "classification": classify_energy(n, energy),
        "koolen_moulton_ok": koolen_moulton_check(n, energy),
    }
    record = {
        "command": "classify",
        "inputs": {"n": str(n), "divisors": [str(d) for d in ds]},
        "results": results,
    }
    lines = [
        f"order n = {n}",
        f"divisor set D = {format_ints(ds)}",
        f"energy = {energy}",
        f"complete graph threshold 2(n-1) = {threshold}",
        f"classification = {results['classification']}",
        f"koolen-moulton bound satisfied = {'yes' if results['koolen_moulton_ok'] else 'NO'}",
    ]
    return record, lines, None


def cmd_verify(args):
    from .search import PRIME_POWER_EXPONENT_CAP, verify_theorem

    if args.smax > PRIME_POWER_EXPONENT_CAP:
        raise ResourceLimitError(
            f"--smax {args.smax} exceeds the enumeration cap {PRIME_POWER_EXPONENT_CAP}"
        )
    if args.pmax > PMAX_CAP:
        raise ResourceLimitError(f"--pmax {args.pmax} exceeds the sweep cap {PMAX_CAP}")
    if args.pmax < 2:
        raise UsageError(f"--pmax must be >= 2, got {args.pmax}")
    if args.smax < 1:
        raise UsageError(f"--smax must be >= 1, got {args.smax}")
    cases = []
    lines = []
    rows = [["p", "s", "ok", "emax"]]
    for p in primes_up_to(args.pmax):
        for s in range(1, args.smax + 1):
            order = PrimePowerOrder(p, s)
            ok, problems = verify_theorem(order, jobs=args.jobs)
            value, _ = emax_closed(order)
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
        "command": "verify",
        "inputs": {"pmax": args.pmax, "smax": args.smax},
        "cases": cases,
        "results": {"cases": len(cases), "failures": failures, "all_ok": failures == 0},
    }
    return record, lines, rows


def cmd_spectrum(args):
    n = args.n
    ds = check_divisor_set(n, args.divisors)
    spec = spectrum_gcd_graph(n, ds)
    energy = sum(abs(x) for x in spec)
    distinct = Counter(spec)
    record = {
        "command": "spectrum",
        "inputs": {"n": str(n), "divisors": [str(d) for d in ds]},
        "results": {
            "degree": spec[0],
            "energy": str(energy),
            "distinct": [[lam, mult] for lam, mult in sorted(distinct.items())],
        },
        "eigenvalues": spec,
    }
    lines = [
        f"order n = {n}",
        f"divisor set D = {format_ints(ds)}",
        f"degree = {spec[0]}",
        "eigenvalue . multiplicity:",
    ]
    lines.extend(f"  {lam} . {mult}" for lam, mult in sorted(distinct.items(), reverse=True))
    lines.append(f"energy = {energy}")
    return record, lines, [["k", "eigenvalue"], *enumerate(spec)]


# Every option's argparse settings, shared by the subcommands that take it.
OPTIONS = {
    **dict.fromkeys(("--p", "--s", "--n", "--pmax", "--smax"), {"type": int}),
    **dict.fromkeys(("--exponents", "--divisors", "--delta"), {"type": _int_list}),
    "--method": {"choices": ("formula", "spectral", "both")},
    "--brute": {"action": "store_true", "help": "cross-check by enumeration"},
    "--jobs": {"type": int, "default": 1},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="icgraph",
        description="Exact energies of integral circulant (gcd) graphs.",
    )
    parser.add_argument(
        "--timing", action="store_true", help="print wall time to stderr"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help, required=(), optional=()) -> None:
        # --help lists options in the order they are added: --format last.
        p = sub.add_parser(name, help=help)
        for flag in (*required, *optional):
            p.add_argument(flag, required=flag in required, **OPTIONS[flag])
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.set_defaults(func=func)

    pp = ("--p", "--s")
    instance = ("--n", "--divisors")
    command(
        "energy", cmd_energy, "energy of one gcd graph",
        optional=(*pp, "--exponents", *instance, "--method"),
    )
    command(
        "emax", cmd_emax, "maximal energy over divisor sets of p^s", pp, ("--brute", "--jobs")
    )
    command("emin", cmd_emin, "minimal energy over divisor sets of p^s", pp)
    command("trace", cmd_trace, "rewrite a delta vector to the maximum", (*pp, "--delta"))
    command("classify", cmd_classify, "hyper/hypoenergetic classification", instance)
    command(
        "verify", cmd_verify, "closed forms vs brute force sweep", ("--pmax", "--smax"), ("--jobs",)
    )
    command("spectrum", cmd_spectrum, "all eigenvalues of one gcd graph", instance)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    # Outputs may have more digits than str(int) allows by default; lift
    # that limit for the command and its output only, not for argv.
    set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        args = build_parser().parse_args(argv)
        set_digits(0)
        record, lines, rows = args.func(args)
        _render(record, lines, rows, args.format)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
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
