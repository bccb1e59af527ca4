"""Spans around amu_spectra's public functions, and what they add up to.

``install`` runs inside a traced CLI child. It wraps every public function
of the traced modules, and the three public members of BumpFactorCache,
and puts each wrapper wherever the package holds a reference to the
original, so calls made through ``from .linalg import operator_norm`` are
seen too. No file under ``src/`` changes. A span records its name, its
parent span, its thread, its start and end, and for the linear-algebra
entry points the work count dim**3 of the matrix argument. Work submitted
to a ThreadPoolExecutor attaches to the span open on the submitting thread.

``analyse`` runs in the benchmark process. It turns the spans into
per-name totals. A span's self time is its duration minus the part of its
interval that its child spans cover, so it is never negative, also when
children run in parallel on worker threads. Summed over all spans, self
time equals the root span's wall time plus ``overlap_s``, the child time
that ran in parallel with a sibling.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

MODULES = ("models", "linalg", "calculus", "spectrum", "search",
           "observables", "essential", "cli")
CACHE_METHODS = {"__init__": "calculus.BumpFactorCache",
                 "factor_matrix": "calculus.factor_matrix",
                 "factor_norm": "calculus.factor_norm"}
WORK_D3 = {"linalg.operator_norm", "linalg.eig_hermitian"}


def _dim3(matrix) -> int:
    arr = getattr(matrix, "array", matrix)
    return int(arr.shape[0]) ** 3


def _probe(name: str, result) -> dict | None:
    """Counts read off a layer's result at its boundary."""
    if name == "spectrum.scan":
        return {"grid_points": result.grid.count, "accepted": len(result.accepted)}
    if name == "search.amu_at":
        return {"certified": int(result.amu_member and result.expectation_close)}
    if name == "essential.essential_spectrum_estimate":
        return {"levels": len(result.levels)}
    return None


class Recorder:
    """Spans kept in memory as (id, name, parent, thread name, start, end, work, info)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counts_work = name in WORK_D3
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            work = _dim3(args[0]) if counts_work else 0
            self.spans.append((sid, name, parent, threading.current_thread().name,
                               start, end, work, _probe(name, result)))
            return result

        return wrapper

    def carry_into(self, fn):
        """Run ``fn`` on another thread below the span open here."""
        inherited = self._stack()[-1:]

        def run(*args, **kwargs):
            self._local.stack = list(inherited)
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.stack = []

        return run


def install(recorder: Recorder) -> None:
    """Wrap the public functions of the traced modules at every import site."""
    package = importlib.import_module("amu_spectra")
    modules = {m: importlib.import_module(f"amu_spectra.{m}") for m in MODULES}
    wrappers = {}
    for short, mod in modules.items():
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrappers[obj] = recorder.wrap(f"{short}.{attr}", obj)
    for mod in [package, *(m for k, m in sys.modules.items()
                           if k.startswith("amu_spectra."))]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    cache_cls = modules["calculus"].BumpFactorCache
    for attr, name in CACHE_METHODS.items():
        setattr(cache_cls, attr, recorder.wrap(name, vars(cache_cls)[attr]))

    submit = ThreadPoolExecutor.submit

    def traced_submit(pool, fn, /, *args, **kwargs):
        return submit(pool, recorder.carry_into(fn), *args, **kwargs)

    ThreadPoolExecutor.submit = traced_submit


def dump(recorder: Recorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans}, fh)


def load(path: str) -> list[tuple]:
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)["spans"]]


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when it is empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def analyse(spans: list[tuple]) -> dict:
    """Per-name totals and per-span self times of one traced child.

    Returns ``names`` (name -> calls, s, self_s, work_d3, ascending
    durations and summed probe counts), ``self`` (span id -> self time),
    ``wall_s`` (the root spans' duration), ``overlap_s`` and ``workers``.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, _, parent, _, start, end, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    names: dict[str, dict] = defaultdict(lambda: {
        "calls": 0, "s": 0.0, "self_s": 0.0, "work_d3": 0,
        "durations": [], "counts": defaultdict(int)})
    self_times = {}
    wall = overlap = 0.0
    for sid, name, parent, _, start, end, work, info in spans:
        kids = children.get(sid, [])
        covered = _covered(start, end, kids)
        own = (end - start) - covered
        self_times[sid] = own
        overlap += sum(min(b, end) - max(a, start) for a, b in kids
                       if min(b, end) > max(a, start)) - covered
        if parent is None:
            wall += end - start
        agg = names[name]
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += own
        agg["work_d3"] += work
        agg["durations"].append(end - start)
        for key, val in (info or {}).items():
            agg["counts"][key] += val
    for agg in names.values():
        agg["durations"].sort()
    return {
        "names": names,
        "self": self_times,
        "wall_s": wall,
        "overlap_s": overlap,
        "workers": pool_workers(spans),
    }


def pool_workers(spans: list[tuple]) -> int:
    """Most worker threads of one executor that ran spans; 1 when none did."""
    pools: dict[str, set[str]] = defaultdict(set)
    for thread in {s[3] for s in spans}:
        pool, sep, _ = thread.rpartition("_")
        if sep and pool.startswith("ThreadPoolExecutor-"):
            pools[pool].add(thread)
    return max((len(t) for t in pools.values()), default=1)


def products_in_scans(spans: list[tuple]) -> int:
    """Operator norms taken directly under a scan span: the products evaluated."""
    scans = {s[0] for s in spans if s[1] == "spectrum.scan"}
    return sum(1 for s in spans if s[1] == "linalg.operator_norm" and s[2] in scans)
