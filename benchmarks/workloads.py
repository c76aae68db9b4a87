"""The benchmark's four workloads: inputs, the timed op, and its independent check.

Each workload yields its ops in rounds. A round is a fixed mix of op
kinds and sizes whose concrete inputs and order come from the seed, so
runs of different seeds do the same amount of work and a run's op mix
does not depend on where the clock stops (runs end on a round boundary).

* sweep    -- verify_theorem(p^s, jobs=2) for every p in {2,3,5,7} and s in
              8..16, plus brute_force_emax_general(n, jobs=2) for seeded n
              with 12 or 16 divisors. Cost: search enumeration, warm
              energy kernels, one process pool start per case.
* rewrite  -- normalize(d0, p^s) from seeded random compositions d0 of s-1:
              mostly s in 20..120 (transform-bound), one s in 200..260 per
              round (kernel-bound), plus direct energy_prime_power calls at
              s in 600..1000 with r ~ s/2.
* spectral -- energy_general, classify_energy and koolen_moulton_check on
              (n, D) with n in [5e5, 1e6] and 16..48 divisors. Per round a
              third of the ops query a fresh n (cold caches) and the rest
              repeat the query of one of the 48 most recently used n, drawn
              with Zipf weights 1/rank, so they stay inside the 64-entry
              cache (warm).
* cli      -- one `python -m icgraph` subprocess at a time, every subcommand
              in every format once per round, on small stored instances whose
              stdout must match golden bytes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import oracles

DATA = Path(__file__).resolve().parent / "data"
PRIMES = (2, 3, 5, 7)
FORMATS = ("table", "json", "csv")


class Workload:
    name = ""
    percentile = 95.0  # tail percentile; min_ops keeps >= 10 samples beyond it
    warmup = ""  # statements run after `import icgraph`, untimed
    in_process = True  # whether the timed ops call icgraph in this process
    child_peak_mb = None  # set by workloads whose icgraph work runs in subprocesses
    check_after_loop = False  # check each op right after it, or all after the timed loop

    def __init__(self, root: Path, tiny: bool = False):
        self.root = root
        self.tiny = tiny

    @functools.cached_property
    def icgraph(self):
        import icgraph

        return icgraph

    @property
    def min_ops(self) -> int:
        return 1 if self.tiny else math.ceil(10 / (1 - self.percentile / 100))

    def rounds(self, rng: random.Random):
        """Endless iterator of op lists."""
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> str | None:
        """None if the result is exact, else a description of the fault."""
        raise NotImplementedError

    def tamper(self, op, result):
        """A deliberately wrong version of result, for testing the checks."""
        raise NotImplementedError

    def probe(self):
        """A reading taken before and after each op, outside the timed window."""
        return None

    def close(self):
        """Stop any helper process the workload started."""


def _composition(rng: random.Random, total: int) -> tuple[int, ...]:
    parts, cur = [], 1
    for _ in range(total - 1):
        if rng.random() < 0.5:
            parts.append(cur)
            cur = 1
        else:
            cur += 1
    parts.append(cur)
    return tuple(parts)


class Sweep(Workload):
    name = "sweep"
    percentile = 90.0
    warmup = (
        "o = icgraph.PrimePowerOrder(11, 3)\n"
        "icgraph.divisors(30)\n"
        "icgraph.energy_prime_power(o, (0, 2))\n"
        "icgraph.verify_theorem(o, jobs=2)\n"
    )

    def __init__(self, root, tiny=False):
        super().__init__(root, tiny)
        self.jobs = 2
        self.reference = json.loads((DATA / "general_maxima.json").read_text())
        by_tau: dict[int, list[int]] = {}
        for key in self.reference:
            n = int(key)
            by_tau.setdefault(sum(1 for d in range(1, n + 1) if n % d == 0), []).append(n)
        self.general = [by_tau[6], by_tau[6]] if tiny else [by_tau[12], by_tau[12], by_tau[16]]
        self.exponents = range(3, 7) if tiny else range(8, 17)
        # verify_theorem returns only (ok, problems); keep the report it
        # computed so the check can see the maximum and the subset count.
        self.search = self.icgraph.search
        self.inner = inner = self.search.brute_force_emax_prime_power
        self.report = None

        def capture(order, jobs=1):
            self.report = inner(order, jobs=jobs)
            return self.report

        capture.__module__, capture.__name__ = inner.__module__, inner.__name__
        self.search.brute_force_emax_prime_power = capture

    def close(self):
        self.search.brute_force_emax_prime_power = self.inner

    def rounds(self, rng):
        while True:
            ops = [("verify", p, s) for p in PRIMES for s in self.exponents]
            ops += [("general", rng.choice(pool)) for pool in self.general]
            rng.shuffle(ops)
            yield ops

    def run(self, op):
        ic = self.icgraph
        if op[0] == "verify":
            ok, problems = ic.verify_theorem(ic.PrimePowerOrder(op[1], op[2]), jobs=self.jobs)
            return ok, problems, self.report
        return ic.brute_force_emax_general(op[1], jobs=self.jobs)

    def check(self, op, result):
        if op[0] == "verify":
            _, p, s = op
            ok, problems, report = result
            if not ok or problems:
                return f"verify_theorem({p}^{s}) not ok: {problems}"
            emax = oracles.emax_formula(p, s)
            sets = oracles.max_divisor_sets(p, s)
            exps = [oracles.exponents_of(d) for d in oracles.max_deltas(p, s)]
            if any(oracles.pp_energy(p, s, a) != emax for a in exps):
                return f"reference maximizers of {p}^{s} disagree with the closed form"
            if report.emax != emax or sorted(report.maximizers) != sets:
                return f"{p}^{s}: got {report.emax} {report.maximizers}, expected {emax} {sets}"
            if report.examined != 2**s - 1:
                return f"{p}^{s}: examined {report.examined}, expected {2**s - 1}"
            return None
        n = op[1]
        ref = self.reference[str(n)]
        got = (str(result.emax), [list(m) for m in result.maximizers], result.examined)
        if got != (ref["emax"], ref["maximizers"], ref["examined"]):
            return f"general n={n}: got {got[0]} {got[1]} examined {got[2]}, expected {ref}"
        return None

    def tamper(self, op, result):
        if op[0] == "verify":
            ok, problems, report = result
            return ok, problems, type(report)(report.n, report.emax + 1, report.maximizers, report.examined)
        return type(result)(result.n, result.emax, result.maximizers, result.examined - 1)


class Rewrite(Workload):
    name = "rewrite"
    percentile = 98.0
    warmup = (
        "o = icgraph.PrimePowerOrder(11, 5)\n"
        "icgraph.is_prime(11)\n"
        "icgraph.energy_prime_power(o, (0, 2, 4))\n"
        "icgraph.normalize((4,), o)\n"
    )

    def rounds(self, rng):
        if self.tiny:
            small, large, kernel = (6, 20, 8), (30, 34), (60, 80, 2)
        else:
            small, large, kernel = (20, 120, 32), (200, 260), (600, 1000, 4)
        lo, hi, count = small
        while True:
            ops = []
            for i in range(count):
                s = lo + int((i + rng.random()) * (hi - lo) / count)
                p = PRIMES[i % len(PRIMES)]
                ops.append(("normalize", p, s, _composition(rng, s - 1)))
            s = rng.randint(*large)
            ops.append(("normalize", rng.choice(PRIMES), s, _composition(rng, s - 1)))
            klo, khi, kcount = kernel
            for i in range(kcount):
                s = klo + int((i + rng.random()) * (khi - klo) / kcount)
                r = s // 2 - rng.randint(0, 10)
                inner = sorted(rng.sample(range(1, s - 1), r - 2))
                ops.append(("energy", rng.choice(PRIMES), s, (0, *inner, s - 1)))
            rng.shuffle(ops)
            yield ops

    def run(self, op):
        ic = self.icgraph
        kind, p, s, vec = op
        order = ic.PrimePowerOrder(p, s)
        if kind == "normalize":
            return ic.normalize(vec, order)
        return ic.energy_prime_power(order, vec)

    def check(self, op, result):
        kind, p, s, vec = op
        if kind == "energy":
            expected = oracles.pp_energy(p, s, vec)
            return None if result == expected else f"energy {p}^{s} r={len(vec)}: {result} != {expected}"
        trace = result
        steps = trace.steps
        if trace.terminal not in oracles.max_deltas(p, s):
            return f"normalize {p}^{s}: terminal {trace.terminal} is not maximal"
        emax = oracles.emax_formula(p, s)
        if oracles.pp_energy(p, s, oracles.exponents_of(trace.terminal)) != emax:
            return f"normalize {p}^{s}: terminal energy differs from emax"
        if not steps:
            return None if trace.terminal == vec else f"normalize {p}^{s}: no steps but terminal != d0"
        if steps[0].before != vec or steps[-1].after != trace.terminal:
            return f"normalize {p}^{s}: trace does not start at d0 or end at its terminal"
        if steps[0].energy_before != oracles.pp_energy(p, s, oracles.exponents_of(vec)):
            return f"normalize {p}^{s}: initial energy is wrong"
        if steps[-1].energy_after != emax:
            return f"normalize {p}^{s}: final energy {steps[-1].energy_after} != {emax}"
        for a, b in zip(steps, steps[1:]):
            if a.after != b.before or a.energy_after != b.energy_before:
                return f"normalize {p}^{s}: trace does not chain"
        for st in steps:
            if st.energy_after < st.energy_before or sum(st.after) != s - 1 or min(st.after) < 1:
                return f"normalize {p}^{s}: bad step {st.label} {st.before} -> {st.after}"
        return None

    def tamper(self, op, result):
        if op[0] == "energy":
            return result - 2
        return SimpleNamespace(steps=(), terminal=(0,))


def _small_primes(limit: int = 1000) -> list[int]:
    return [q for q in range(2, limit + 1) if all(q % f for f in range(2, math.isqrt(q) + 1))]


class Spectral(Workload):
    name = "spectral"
    percentile = 95.0
    warmup = (
        "icgraph.factorize(30)\n"
        "icgraph.ramanujan_sum(30, 6)\n"
        "icgraph.check_divisor_set(30, (1, 2))\n"
        "e = icgraph.energy_general(30, (1, 2))\n"
        "icgraph.classify_energy(30, e)\n"
        "icgraph.koolen_moulton_check(30, e)\n"
    )
    RECENT = 48  # warm ops draw from this many most recent n; the cache holds 64
    check_after_loop = True  # the reference imports sympy; keep it out of the peak RSS

    def __init__(self, root, tiny=False):
        super().__init__(root, tiny)
        self.primes = _small_primes()
        self.lo, self.hi = (2000, 6000) if tiny else (500_000, 1_000_000)
        counts = getattr(self.icgraph.energy, "_gcd_class_counts", None)
        self._info = getattr(counts, "cache_info", None)

    def _divisors(self, n: int) -> list[int]:
        out, rest = [1], n
        for q in self.primes:
            if q * q > rest:
                break
            e = 0
            while rest % q == 0:
                rest //= q
                e += 1
            out = [d * q**k for d in out for k in range(e + 1)]
        if rest > 1:
            out += [d * rest for d in out]
        return sorted(out)

    def _fresh(self, rng, band: int, bands: int, queries: dict) -> tuple:
        """A query on an n never used before, from the given magnitude band."""
        width = (self.hi - self.lo) // bands
        while True:
            n = self.lo + band * width + rng.randrange(width)
            divisors = self._divisors(n)
            if n not in queries and 16 <= len(divisors) <= 48:
                queries[n] = ("classify", n, tuple(sorted(rng.sample(divisors[:-1], rng.randint(1, 4)))))
                return queries[n]

    def rounds(self, rng):
        queries: dict[int, tuple] = {}
        recent: list[int] = []  # n of past queries, most recent first
        weights = [1 / k for k in range(1, self.RECENT + 1)]
        cold_n, warm_n = (2, 4) if self.tiny else (4, 8)
        first = True
        while True:
            kinds = ["cold"] * cold_n + ["warm"] * warm_n
            if not first:
                rng.shuffle(kinds)
            first = False
            ops, band = [], 0
            for kind in kinds:
                if kind == "cold":
                    op = self._fresh(rng, band, cold_n, queries)
                    band += 1
                else:  # repeat a recent query
                    k = min(len(recent), self.RECENT)
                    op = queries[recent[rng.choices(range(k), weights[:k])[0]]]
                if op[1] in recent:
                    recent.remove(op[1])
                recent.insert(0, op[1])
                ops.append(op)
            yield ops

    def run(self, op):
        ic = self.icgraph
        _, n, ds = op
        e = ic.energy_general(n, ds)
        return e, ic.classify_energy(n, e), ic.koolen_moulton_check(n, e)

    def check(self, op, result):
        _, n, ds = op
        e = oracles.general_energy(n, ds)
        expected = (e, oracles.classify(n, e), oracles.koolen_moulton(n, e))
        return None if tuple(result) == expected else f"n={n} D={ds}: {result} != {expected}"

    def tamper(self, op, result):
        e, cls, km = result
        return e + 1, cls, km

    def probe(self):
        return self._info().misses if self._info else None


CLI_CATALOG = {
    "energy": (
        ["--p", "3", "--s", "6", "--exponents", "0,2,5"],
        ["--n", "60", "--divisors", "1,2,5"],
        ["--n", "64", "--divisors", "1,4,32", "--method", "both"],
    ),
    "emax": (["--p", "2", "--s", "7"], ["--p", "5", "--s", "4", "--brute"], ["--p", "3", "--s", "6", "--brute"]),
    "emin": (["--p", "2", "--s", "5"], ["--p", "7", "--s", "3"], ["--p", "11", "--s", "4"]),
    "trace": (
        ["--p", "2", "--s", "9", "--delta", "8"],
        ["--p", "3", "--s", "12", "--delta", "1,1,4,5"],
        ["--p", "5", "--s", "10", "--delta", "3,3,3"],
    ),
    "classify": (
        ["--n", "60", "--divisors", "1,6,10"],
        ["--n", "105", "--divisors", "1,15,21,35"],
        ["--n", "96", "--divisors", "2,3"],
    ),
    "verify": (["--pmax", "3", "--smax", "5"], ["--pmax", "5", "--smax", "4"], ["--pmax", "2", "--smax", "7"]),
    "spectrum": (["--n", "12", "--divisors", "1,4"], ["--n", "30", "--divisors", "1,6"], ["--n", "36", "--divisors", "2,9"]),
}


def cli_argvs() -> list[list[str]]:
    return [[cmd, *args, "--format", fmt] for cmd, cases in CLI_CATALOG.items() for fmt in FORMATS for args in cases]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    name = "cli"
    percentile = 90.0
    warmup = (
        "import io, contextlib, icgraph.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    icgraph.cli.main(['emin', '--p', '13', '--s', '2'])\n"
    )

    in_process = False

    # A child's peak RSS as the kernel reports it includes its parent's RSS
    # at the time of the fork, so the icgraph subprocesses are started by a
    # small launcher interpreter, not by this (larger) benchmark process.
    LAUNCHER = (
        "import json, resource, subprocess, sys\n"
        "for line in sys.stdin:\n"
        "    proc = subprocess.run(json.loads(line), capture_output=True)\n"
        "    print(json.dumps([proc.returncode, proc.stdout.decode('latin-1')]), flush=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, flush=True)\n"
    )

    def __init__(self, root, tiny=False):
        super().__init__(root, tiny)
        self.golden = {tuple(e["argv"]): e["stdout"].encode() for e in json.loads((DATA / "cli_golden.json").read_text())}
        self.env = child_env(root)
        self.launcher = None

    def rounds(self, rng):
        while True:
            ops = []
            for cmd, cases in CLI_CATALOG.items():
                for fmt in FORMATS[:1] if self.tiny else FORMATS:
                    ops.append((cmd, *rng.choice(cases), "--format", fmt))
            rng.shuffle(ops)
            yield ops

    def run(self, op):
        if self.launcher is None:
            self.launcher = subprocess.Popen(
                [sys.executable, "-S", "-c", self.LAUNCHER],
                cwd=self.root, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        self.launcher.stdin.write(json.dumps([sys.executable, "-m", "icgraph", *op]) + "\n")
        self.launcher.stdin.flush()
        code, out = json.loads(self.launcher.stdout.readline())
        return code, out.encode("latin-1")

    def close(self):
        if self.launcher is not None:
            self.launcher.stdin.close()
            self.child_peak_mb = int(self.launcher.stdout.readline()) / 1024
            self.launcher.stdout.close()
            self.launcher.wait(timeout=60)
            self.launcher = None

    def run_inprocess(self, op):
        import icgraph.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.icgraph.cli.main(list(op))
        return code, out.getvalue().encode()

    def check(self, op, result):
        code, out = result
        if code != 0:
            return f"{' '.join(op)}: exit code {code}"
        return None if out == self.golden[op] else f"{' '.join(op)}: stdout differs from golden"

    def tamper(self, op, result):
        code, out = result
        return code, out + b"\n"


WORKLOADS = {w.name: w for w in (Sweep, Rewrite, Spectral, Cli)}
