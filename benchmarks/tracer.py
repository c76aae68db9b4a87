"""Span tracing of icgraph's layers, installed from outside the package.

Every public function of each layer module is replaced by a wrapper that
records a span (id, name, start, end, parent). The wrapper is installed
where the function is defined and under every name another icgraph module
bound it to with ``from .x import y``; otherwise calls that cross layers
would bypass it. Dataclass ``__post_init__`` validators count as their
module's layer. The search module's ``ProcessPoolExecutor`` is replaced
by a subclass that counts pool starts, submitted chunks and the time the
caller waits for chunk results.

Spans are aggregated per name as they close (calls, inclusive and self
time) so that memory stays flat; the first ``cap`` raw spans are also
kept and written out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from pathlib import Path

LAYERS = ("numtheory", "model", "energy", "search", "transform", "cli")
LABELS = ("Ia", "Ib", "II", "III", "IV", "V")
_perf = time.perf_counter_ns


class Tracer:
    def __init__(self, cap: int = 20000):
        self.cap = cap
        self.stack: list[list] = []  # [span id, child ns, name]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.spans: list[tuple] = []
        self.next_id = 0
        self.patches: list[tuple[object, str, object]] = []
        self.steps = dict.fromkeys(LABELS, 0)
        self.instances = 0
        self.subsets = 0
        self.general_cold: list[int] = []
        self.general_warm: list[int] = []
        self.pool_starts = 0
        self.chunks = 0
        self.pool_wait_ns = 0
        self.energy_in_normalize_ns = 0
        self.cache_hits = dict.fromkeys(CACHES, 0)
        self.cache_misses = dict.fromkeys(CACHES, 0)
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._seen_n: set[int] = set()

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        stack, stats, spans, cap = self.stack, self.stats, self.spans, self.cap
        stats.setdefault(name, [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0, name]
            stack.append(frame)
            before = observe[0](args) if observe and observe[0] else None
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if len(spans) < cap:
                    spans.append((sid, name, t0, t1, parent))
            if observe:
                observe[1](args, result, before, dur)
            return result

        return wrapper

    def _patch(self, obj, attr: str, value) -> None:
        self.patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import icgraph

        mods = {layer: importlib.import_module(f"icgraph.{layer}") for layer in LAYERS}
        namespaces = [icgraph, *mods.values()]
        energy = mods["energy"]
        observers = {
            "energy.energy_prime_power": (None, self._on_prime_power),
            "transform.applicable": (None, self._on_applicable),
            "transform.apply_rule": (None, self._on_apply_rule),
            "search.brute_force_emax_prime_power": (None, self._on_report),
            "search.brute_force_emax_general": (None, self._on_report),
            "energy.energy_general": (self._general_before(energy), self._general_after(energy)),
        }
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._span(name, obj, observers.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, wrapped)
            for attr, cls in list(vars(mod).items()):
                if isinstance(cls, type) and cls.__module__ == mod.__name__ and "__post_init__" in vars(cls):
                    post = vars(cls)["__post_init__"]
                    self._patch(cls, "__post_init__", self._span(f"{layer}.{attr}.__post_init__", post))
        import concurrent.futures

        pool = self._counting_pool(concurrent.futures.ProcessPoolExecutor)
        for ns in (concurrent.futures, mods["search"]):
            if hasattr(ns, "ProcessPoolExecutor"):
                self._patch(ns, "ProcessPoolExecutor", pool)
        self._cache_start = cache_counts()

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self.patches):
            setattr(obj, attr, value)
        self.patches.clear()
        for key, (hits, misses) in cache_counts().items():
            start_hits, start_misses = self._cache_start.get(key, (hits, misses))
            self.cache_hits[key] += hits - start_hits
            self.cache_misses[key] += misses - start_misses

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- observers ---------------------------------------------------------

    def _on_prime_power(self, args, result, before, dur) -> None:
        if any(frame[2] == "transform.normalize" for frame in self.stack):
            self.energy_in_normalize_ns += dur

    def _on_applicable(self, args, result, before, dur) -> None:
        self.instances += len(result)

    def _on_apply_rule(self, args, result, before, dur) -> None:
        self.steps[str(args[1])] += 1

    def _on_report(self, args, result, before, dur) -> None:
        self.subsets += result.examined

    def _general_before(self, energy):
        counts = getattr(energy, "_gcd_class_counts", None)
        info = getattr(counts, "cache_info", None)
        if info is not None:
            return lambda args: info().misses
        return lambda args: args[0] not in self._seen_n

    def _general_after(self, energy):
        counts = getattr(energy, "_gcd_class_counts", None)
        info = getattr(counts, "cache_info", None)

        def after(args, result, before, dur):
            if info is not None:
                cold = info().misses > before
            else:
                cold = before
                self._seen_n.add(args[0])
            (self.general_cold if cold else self.general_warm).append(dur)

        return after

    def _counting_pool(self, base):
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.pool_starts += 1
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                tracer.chunks += 1
                future = super().submit(fn, *args, **kwargs)
                result = future.result

                def timed_result(timeout=None):
                    t0 = _perf()
                    try:
                        return result(timeout)
                    finally:
                        tracer.pool_wait_ns += _perf() - t0

                future.result = timed_result
                return future

        return CountingPool

    # -- reporting ---------------------------------------------------------

    def _sum(self, prefix: str, column: int) -> int:
        return sum(st[column] for name, st in self.stats.items() if name.startswith(prefix))

    def _get(self, name: str, column: int) -> int:
        return self.stats.get(name, [0, 0, 0])[column]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times from the spans recorded so far."""
        s = 1e-9
        m: dict[str, float] = {}
        pp_calls = self._get("energy.energy_prime_power", 0)
        pp_self = self._get("energy.energy_prime_power", 2)
        m["energy.prime_power.calls"] = pp_calls
        m["energy.prime_power.self_s"] = pp_self * s
        m["energy.prime_power.us_per_call"] = pp_self / pp_calls / 1e3 if pp_calls else 0.0

        m["transform.self_s"] = self._sum("transform.", 2) * s
        m["transform.applicable.self_s"] = self._get("transform.applicable", 2) * s
        steps = sum(self.steps.values())
        m["transform.steps"] = steps
        for label in LABELS:
            m[f"transform.steps.{label}"] = self.steps[label]
        m["transform.instance_use_ratio"] = steps / self.instances if self.instances else 0.0
        normalize_ns = self._get("transform.normalize", 1)
        m["transform.energy_share"] = self.energy_in_normalize_ns / normalize_ns if normalize_ns else 0.0

        m["search.cases"] = self._get("search.brute_force_emax_prime_power", 0) + self._get(
            "search.brute_force_emax_general", 0
        )
        m["search.subsets_examined"] = self.subsets
        brute_ns = self._get("search.brute_force_emax_prime_power", 1) + self._get(
            "search.brute_force_emax_general", 1
        )
        m["search.subsets_per_s"] = self.subsets / (brute_ns * s) if brute_ns else 0.0
        m["search.self_s"] = self._sum("search.", 2) * s
        m["search.pool_starts"] = self.pool_starts
        m["search.chunks"] = self.chunks
        m["search.pool_wait_s"] = self.pool_wait_ns * s

        cold, warm = self.general_cold, self.general_warm
        m["energy.general.calls"] = self._get("energy.energy_general", 0)
        m["energy.general.self_s"] = self._get("energy.energy_general", 2) * s
        m["energy.general.cold_calls"] = len(cold)
        m["energy.general.cold_ms_p50"] = statistics.median(cold) / 1e6 if cold else 0.0
        m["energy.general.warm_ms_p50"] = statistics.median(warm) / 1e6 if warm else 0.0

        for fn in ("factorize", "is_prime", "ramanujan_sum", "divisors"):
            m[f"numtheory.{fn}.calls"] = self._get(f"numtheory.{fn}", 0)
            m[f"numtheory.{fn}.self_s"] = self._get(f"numtheory.{fn}", 2) * s
        m["model.validate.calls"] = self._sum("model.", 0)
        m["model.validate.self_s"] = self._sum("model.", 2) * s
        for key in CACHES:
            lookups = self.cache_hits[key] + self.cache_misses[key]
            m[key] = self.cache_hits[key] / lookups if lookups else 0.0
        return m

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["id", "name", "start_ns", "end_ns", "parent"],
            "spans": self.spans,
            "spans_recorded": self.next_id,
            "stats": {k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2]} for k, v in self.stats.items()},
            **extra,
        }
        path.write_text(json.dumps(doc))


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "subsets_per_s":
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if "_ms" in last:
        return "ms"
    if last == "us_per_call":
        return "us"
    if last.endswith(("ratio", "share")):
        return "ratio"
    return "count"


# Hit-ratio metric -> lru_cache in icgraph.energy it reads (0 if the cache is gone).
CACHES = {"energy.gcd_counts.hit_ratio": "_gcd_class_counts", "energy.eigen_classes.hit_ratio": "_eigenvalue_classes"}


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) so far of each cache in CACHES that exists."""
    energy = importlib.import_module("icgraph.energy")
    out = {}
    for key, name in CACHES.items():
        info = getattr(getattr(energy, name, None), "cache_info", None)
        if info is not None:
            out[key] = tuple(info()[:2])
    return out
