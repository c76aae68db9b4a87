"""Benchmark for icgraph: one workload, one seed, one process.

    python3 benchmarks/run.py --workload rewrite --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; icgraph is imported from ./src.
Workloads are described in workloads.py. All ops run closed-loop: one
caller issues the next op only when the previous one has returned.

--trace 0 prints the end-to-end metrics: ops_per_s (ops over the time
spent inside ops), latency_p50_ms, latency_tail_ms (at the workload's
fixed percentile, with at least 10 samples beyond it), setup_s (median
time, in fresh interpreters, to import icgraph and make one warm-up call
per layer the workload uses, on inputs outside the workload's own) and
peak_rss_mb (the largest peak resident set among the processes doing the
workload's icgraph work: this one and the pool workers it waited for, or
for cli the icgraph subprocesses).

--trace 1 prints the per-layer metrics instead. The run does the same
number of rounds untraced, then traced, then (sweep only) traced at
jobs=1, because pool workers' spans stay in the workers. Sweep's pool
counts come from the traced jobs=2 pass and every other layer metric from
the jobs=1 pass. trace.overhead_ratio is traced over untraced time per
op. The cli workload's layer spans come from cli.main(argv) in-process.

Every op's result is checked outside the timed window against
independent references (oracles.py and the stored data/ files): right
after the op, or for spectral, whose reference loads sympy, after the
loop so sympy stays out of the measured peak RSS. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it records
the run (versions, seed, op counts, percentile, warm share, failures).
Raw spans of a traced run are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 15
SWEEP_METHOD = "pool counts from the traced jobs=2 pass; all other layer metrics from the traced jobs=1 pass"


class Ops:
    """Outcomes of the ops run so far: kind, latency and check verdict of each."""

    def __init__(self, wl, tamper: bool = False):
        self.wl = wl
        self.tamper = tamper
        self.kinds: list[str] = []
        self.ns: list[int] = []
        self.warm: list[bool] = []
        self.faults: list[str] = []
        self.deferred: list[tuple] = []

    def __len__(self) -> int:
        return len(self.ns)

    def add(self, op, result, ns: int, before, after) -> None:
        if self.tamper and not self.ns:
            result = self.wl.tamper(op, result)
        self.kinds.append(op[0])
        self.ns.append(ns)
        if before is not None:
            self.warm.append(after == before)
        if self.wl.check_after_loop and not isinstance(result, Exception):
            self.deferred.append((op, result))
        else:
            self.verify(op, result)

    def verify(self, op, result) -> None:
        if isinstance(result, Exception):
            fault = f"raised {type(result).__name__}: {result}"
        else:
            try:
                fault = self.wl.check(op, result)
            except Exception as exc:  # a broken result can break the check too
                fault = f"check raised {type(exc).__name__}: {exc}"
        if fault:
            self.faults.append(f"{op[:3]}: {fault}")

    def finish(self) -> list[str]:
        for op, result in self.deferred:
            self.verify(op, result)
        self.deferred.clear()
        return self.faults


def run_ops(wl, rounds, out: Ops, seconds: float, min_ops: int = 1, max_rounds: int | None = None, call=None):
    """Closed loop over whole rounds until the time in ops and the op floor are both met.

    Returns (seconds spent inside ops, rounds run).
    """
    call = call or wl.run
    busy = done = 0
    start = len(out)
    for ops in rounds:
        for op in ops:
            before = wl.probe()
            t0 = time.perf_counter_ns()
            try:
                result = call(op)
            except Exception as exc:  # a failed op is counted, not fatal
                result = exc
            t1 = time.perf_counter_ns()
            busy += t1 - t0
            out.add(op, result, t1 - t0, before, wl.probe())
        done += 1
        if max_rounds is not None:
            if done >= max_rounds:
                break
        elif busy / 1e9 >= seconds and len(out) - start >= min_ops:
            break
    return busy / 1e9, done


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def run_probe(code: str, env: dict[str, str]) -> float:
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_probe(body: str) -> str:
    """Source for a fresh interpreter that prints how long `body` took."""
    return "import time\nt0 = time.perf_counter()\n" + body + "print(time.perf_counter() - t0)\n"


def wall_probe(env, code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


def measure_setup(wl, env, probes: int) -> list[float]:
    code = timed_probe("import icgraph\n" + wl.warmup)
    run_probe(code, env)  # untimed: writes bytecode caches, fills the page cache
    return [run_probe(code, env) for _ in range(probes)]


def tail(latencies_ms: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank value at `percentile` and the number of samples above that rank."""
    ordered = sorted(latencies_ms)
    rank = max(1, -int(-len(ordered) * percentile // 100))
    return ordered[rank - 1], len(ordered) - rank


def describe(wl, seed: int, out: Ops, extra: dict) -> dict:
    kinds: dict[str, int] = {}
    for kind in out.kinds:
        kinds[kind] = kinds.get(kind, 0) + 1
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "icgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "ops": len(out),
        "ops_by_kind": kinds,
        "error_rate": len(out.faults) / len(out),
        "failures": out.faults[:20],
        **extra,
    }


def untraced(wl, seed: int, seconds: float, out: Ops):
    import workloads

    if wl.in_process:
        exec(wl.warmup, {"icgraph": wl.icgraph})
    busy, rounds = run_ops(wl, wl.rounds(random.Random(seed)), out, seconds, wl.min_ops)
    wl.close()
    self_rss = rss_mb(resource.RUSAGE_SELF)
    child_rss = rss_mb(resource.RUSAGE_CHILDREN) if wl.in_process else wl.child_peak_mb
    peak = max(self_rss, child_rss) if wl.in_process else child_rss
    out.finish()
    setup = measure_setup(wl, workloads.child_env(ROOT), 1 if wl.tiny else SETUP_PROBES)
    lat = [ns / 1e6 for ns in out.ns]
    tail_ms, beyond = tail(lat, wl.percentile)
    metrics = {
        "ops_per_s": (len(out) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    record = describe(
        wl,
        seed,
        out,
        {
            "rounds": rounds,
            "busy_s": busy,
            "tail_percentile": wl.percentile,
            "tail_samples_beyond": beyond,
            "warm_share": sum(out.warm) / len(out.warm) if out.warm else None,
            "self_peak_rss_mb": self_rss,
            "child_peak_rss_mb": child_rss,
            "setup_runs_s": setup,
        },
    )
    return metrics, record


def traced(wl, seed: int, seconds: float, out: Ops):
    import tracer as tracing
    import workloads

    exec(wl.warmup, {"icgraph": wl.icgraph})
    env = workloads.child_env(ROOT)
    rounds = wl.rounds(random.Random(seed))
    inproc = getattr(wl, "run_inprocess", None)
    # Untraced and traced rounds alternate, so drift in machine speed
    # cancels out of the overhead ratio.
    tr = tracing.Tracer()
    base_ns: list[int] = []
    base_busy = traced_busy = 0.0
    traced_ops = n_rounds = 0
    while not n_rounds or base_busy < seconds / 3:
        first = len(out)
        base_busy += run_ops(wl, rounds, out, 0, max_rounds=1, call=inproc)[0]
        base_ns += out.ns[first:]
        first = len(out)
        with tr:
            traced_busy += run_ops(wl, rounds, out, 0, max_rounds=1, call=inproc)[0]
        traced_ops += len(out) - first
        n_rounds += 1
    passes = {"untraced": len(base_ns), "traced": traced_ops}
    detail = tr
    if wl.name == "sweep":
        wl.jobs = 1
        with tracing.Tracer() as detail:
            run_ops(wl, rounds, out, 0, max_rounds=n_rounds)
        wl.jobs = 2
        passes["traced_jobs1"] = len(out) - len(base_ns) - traced_ops
    layer = detail.layer_metrics()
    for key in ("search.pool_starts", "search.chunks", "search.pool_wait_s"):
        layer[key] = tr.layer_metrics()[key]
    layer["trace.overhead_ratio"] = (traced_busy / traced_ops) / (base_busy / len(base_ns))

    probes = 1 if wl.tiny else SETUP_PROBES
    layer["cli.interpreter_ms"] = statistics.median(wall_probe(env, "pass") for _ in range(probes)) * 1e3
    imports = [run_probe(timed_probe("import icgraph, icgraph.cli\n"), env) for _ in range(probes)]
    layer["cli.import_ms"] = statistics.median(imports) * 1e3
    layer["cli.main_ms_p50"] = layer["cli.startup_share"] = 0.0
    if wl.name == "cli":
        layer["cli.main_ms_p50"] = statistics.median(base_ns) / 1e6
        first = len(out)
        run_ops(wl, rounds, out, 0, max_rounds=1)
        wl.close()
        sub_ms = statistics.median(out.ns[first:]) / 1e6
        layer["cli.startup_share"] = (layer["cli.interpreter_ms"] + layer["cli.import_ms"]) / sub_ms

    out.finish()
    record = describe(
        wl,
        seed,
        out,
        {
            "passes": passes,
            "rounds_per_pass": n_rounds,
            "untraced_busy_s": base_busy,
            "traced_busy_s": traced_busy,
            "spans_recorded": detail.next_id,
            "sweep_method": SWEEP_METHOD if wl.name == "sweep" else None,
        },
    )
    if not wl.tiny:
        detail.write(ROOT / ".bench_out" / f"trace-{wl.name}-seed{seed}.json", {"record": record})
    metrics = {name: (value, tracing.unit_of(name)) for name, value in layer.items()}
    return metrics, record


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, tamper: bool = False):
    """Run one workload; returns (final result dict, record dict)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS[workload](ROOT, tiny=tiny)
    out = Ops(wl, tamper)
    try:
        metrics, record = (traced if trace else untraced)(wl, seed, seconds, out)
    finally:
        wl.close()
    result = {
        "correct": not out.faults,
        "attempted": len(out),
        "failed": len(out.faults),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "rewrite", "spectral", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "icgraph" / "__init__.py").is_file():
        print(f"no icgraph source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
