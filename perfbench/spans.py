"""Per-layer spans, recorded from outside the library.

`Recorder.install()` replaces each function in TARGETS at its definition and
at every module of friable_sums that imported it, so both calls within a
module and calls from one module into another open a span. A span holds its
name, start, end, parent span, job id and thread id. Thread pools started by
`sums` (segment histograms) and `cli` (scan cells) get a `pool` span whose
parent is the call that started it; spans in the pool's worker threads have
the pool as parent. Spans stay in per-thread arrays and are drained once per
pass. Nothing under src/ changes.

Every `*_s` metric is a self time: a span's duration minus the union of its
children's intervals, summed over the spans named. A `pool` span's self time
counts towards the layer of the call that started it.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.thread
import functools
import importlib
import itertools
import threading
import time
from array import array
from typing import Callable, Optional

import numpy as np


class TraceSetupError(RuntimeError):
    """A wrapped attribute is gone, or an expected layer recorded nothing."""


class _Buffer:
    """Spans and counters of one thread."""

    __slots__ = ("tid", "stack", "sid", "name", "parent", "job", "start", "end", "counts")

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[int] = []
        self.sid, self.parent = array("q"), array("q")
        self.name, self.job = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.counts: dict[str, int] = {}

    def add(self, sid: int, name: int, parent: int, job: int, t0: float, t1: float) -> None:
        self.sid.append(sid)
        self.name.append(name)
        self.parent.append(parent)
        self.job.append(job)
        self.start.append(t0)
        self.end.append(t1)

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


# ---------------------------------------------------------------------------
# hooks: counts taken from a call's arguments and result
# ---------------------------------------------------------------------------

def _note_primes(buf: _Buffer, args, kwargs, result) -> None:
    n = int(args[0] if args else kwargs["n"])
    buf.counts["sieve.primes_table_max"] = max(buf.counts.get("sieve.primes_table_max", 0), n)


def _note_plan(buf: _Buffer, args, kwargs, result) -> None:
    """Work the segment sieve will do for this plan, computed, not timed.

    Segments tile [1, floor(x)], and each segment divides cof[s::t] //= p
    once per multiple of every prime power t <= x it contains, so the plan
    costs sum over t of floor(x / t) divisions in all.
    """
    bounds, _, primes = result
    x_floor = bounds[-1][1] if bounds else 0
    ops = 0
    for p in primes.tolist():
        t = p
        while t <= x_floor:
            ops += x_floor // t
            t *= p
    buf.count("sieve.planned_segments", len(bounds))
    buf.count("sieve.swept", x_floor)
    buf.count("sieve.divide_ops_computed", ops)


def _note_segment(buf: _Buffer, args, kwargs, result) -> None:
    buf.count("sieve.members", int(result[0].size))


def _note_terms(buf: _Buffer, args, kwargs, result) -> None:
    buf.count("sums.terms", int(result.terms))


def _note_cells(buf: _Buffer, args, kwargs, result) -> None:
    buf.count("cli.scan_cells", len(result))


# (module, attribute, span name, hook). Generators are in GENERATORS.
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("sieve", "primes_upto", "sieve.primes", _note_primes),
    ("sieve", "primes_between", "sieve.primes_between", None),
    ("sieve", "next_primes_above", "sieve.next_primes", None),
    ("sieve", "build_sieve", "sieve.build_sieve", None),
    ("sieve", "smooth_plan", "sieve.plan", _note_plan),
    ("sieve", "smooth_in_range", "sieve.segment", _note_segment),
    ("sieve", "psi", "sieve.psi", None),
    ("sieve", "FactorSieve.factorize", "arith.factorize", None),
    ("sums", "sum_power", "sums.sum_power", _note_terms),
    ("sums", "sum_theta", "sums.sum_theta", _note_terms),
    ("sums", "sum_linear", "sums.sum_linear", None),
    ("sums", "sum_prime_convolution", "sums.sum_prime_convolution", None),
    ("sums", "complete_monomial_sum", "sums.complete_monomial_sum", None),
    ("sums", "weil_envelope_violation", "sums.weil_envelope_violation", None),
    ("arith", "factorize", "arith.factorize", None),
    ("arith", "floor_quotient", "arith.floor_quotient", None),
    ("arith", "fsum_complex", "arith.fsum", None),
    ("decomp", "w_split", "decomp.w_split", None),
    ("decomp", "count_admissible_splits", "decomp.count_admissible_splits", None),
    ("decomp", "split_partition_sums", "decomp.split_partition_sums", None),
    ("decomp", "buchstab_expand", "decomp.buchstab_expand", None),
    ("decomp", "arith_tables", "decomp.arith_tables", None),
    ("decomp", "ArithTables.factorize", "arith.factorize", None),
    ("decomp", "first_vaughan_counterexample", "decomp.first_vaughan_counterexample", None),
    ("decomp", "first_heath_brown_counterexample", "decomp.first_heath_brown_counterexample", None),
    ("decomp", "heath_brown_lambda_check", "decomp.heath_brown_lambda_check", None),
    ("decomp", "bilinear_regroup", "decomp.bilinear_regroup", None),
    ("decomp", "relaxed_tuple_sum", "decomp.relaxed_tuple_sum", None),
    ("decomp", "regrouped_tuple_sum", "decomp.regrouped_tuple_sum", None),
    ("bounds", "report", "bounds.report", None),
    ("optimizer", "optimal_omega", "optimizer.optimal_omega", None),
    ("optimizer", "oracle_optimal_omega", "optimizer.oracle_optimal_omega", None),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_sum", "cli.cmd_sum", None),
    ("cli", "cmd_sieve", "cli.cmd_sieve", None),
    ("cli", "cmd_scan", "cli.cmd_scan", None),
    ("cli", "cmd_verify", "cli.cmd_verify", None),
    ("cli", "ScanSpec.cells", "cli.cells", _note_cells),
]
# iter_smooth yields one sieved segment per step: one span per step.
GENERATORS = [("sieve", "iter_smooth", "sieve.segment", _note_segment)]
MODULES = ("arith", "sieve", "sums", "decomp", "bounds", "optimizer", "cli")


class Recorder:
    def __init__(self) -> None:
        self.on = False
        self.job = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.pools: list[tuple[int, int]] = []  # (pool span id, max_workers)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        rec, nid, clock, ids = self, self.name_id(name), time.perf_counter, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            buf = rec.buffer()
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.add(sid, nid, parent, rec.job, t0, t1)
            if hook is not None:
                hook(buf, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, fn: Callable, name: str, hook: Callable) -> Callable:
        """One span per step of the generator; the exhausting step is `<name>_end`."""
        rec, nid, end_id = self, self.name_id(name), self.name_id(name + "_end")
        clock, ids = time.perf_counter, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not rec.on:
                yield from gen
                return
            while True:
                buf = rec.buffer()
                stack = buf.stack
                sid = next(ids)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    stack.pop()
                    buf.add(sid, end_id, parent, rec.job, t0, clock())
                    return
                except BaseException:
                    stack.pop()
                    buf.add(sid, nid, parent, rec.job, t0, clock())
                    raise
                stack.pop()
                buf.add(sid, nid, parent, rec.job, t0, clock())
                hook(buf, args, kwargs, item)
                yield item

        return traced

    def _adopt(self, parent: int, fn: Callable, *args, **kwargs):
        """Run a pool task in a worker thread with the pool span as parent."""
        stack = self.buffer().stack
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _pool_class(self, base: type) -> type:
        rec, nid = self, self.name_id("pool")

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._span = None
                if rec.on:
                    buf = rec.buffer()
                    parent = buf.stack[-1] if buf.stack else -1
                    self._span = (buf, next(rec._ids), parent, time.perf_counter())

            def submit(self, fn, /, *args, **kwargs):
                if self._span is None:
                    return super().submit(fn, *args, **kwargs)
                return super().submit(rec._adopt, self._span[1], fn, *args, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait, **kwargs)
                if self._span is not None and wait:
                    buf, sid, parent, t0 = self._span
                    buf.add(sid, nid, parent, rec.job, t0, time.perf_counter())
                    rec.pools.append((sid, self._max_workers))
                    self._span = None

        return TracedPool

    def install(self) -> None:
        """Wrap every target; raise TraceSetupError if one has disappeared."""
        mods = {m: importlib.import_module(f"friable_sums.{m}") for m in MODULES}
        everywhere = [importlib.import_module("friable_sums"), *mods.values()]
        plan = [(t, self.wrap) for t in TARGETS] + [(g, self.wrap_generator) for g in GENERATORS]
        for (mod, attr, name, hook), make in plan:
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(mods[mod], owner, None) if owner else mods[mod]
            fn = getattr(holder, leaf, None)
            if not callable(fn):
                raise TraceSetupError(f"friable_sums.{mod}.{attr} is gone: cannot trace {name}")
            wrapped = make(fn, name, hook)
            if owner:
                setattr(holder, leaf, wrapped)
                continue
            for m in everywhere:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
        concurrent.futures.ThreadPoolExecutor = self._pool_class(
            concurrent.futures.thread.ThreadPoolExecutor)

    # -- collection ---------------------------------------------------------

    def drain(self) -> "Spans":
        """Everything recorded since the last drain; buffers are emptied."""
        with self._lock:
            bufs = list(self._buffers)
        cols: dict[str, list[np.ndarray]] = {k: [] for k in _COLUMNS}
        counts: dict[str, int] = {}
        for b in bufs:
            for k in _SPAN_FIELDS:
                col = getattr(b, k)
                cols[k].append(np.array(col, dtype=col.typecode))
                del col[:]
            cols["tid"].append(np.full(len(cols["sid"][-1]), b.tid, dtype=np.int32))
            for key, v in b.counts.items():
                merged = max if key.endswith("_max") else int.__add__
                counts[key] = merged(counts.get(key, 0), v)
            b.counts.clear()
        pools, self.pools = self.pools, []
        arrays = {k: np.concatenate(v) if v else np.empty(0, dtype=_COLUMNS[k])
                  for k, v in cols.items()}
        return Spans(list(self.names), arrays, counts, pools)


_SPAN_FIELDS = ("sid", "name", "parent", "job", "start", "end")
_COLUMNS = {"sid": "q", "name": "i", "parent": "q", "job": "i",
            "start": "d", "end": "d", "tid": "i"}


class Spans:
    """Drained spans of one pass, with self times and per-layer metrics."""

    def __init__(self, names: list[str], a: dict[str, np.ndarray], counts: dict, pools: list):
        self.names, self.a, self.counts, self.pools = names, a, counts, pools
        order = np.argsort(a["sid"], kind="stable")
        self.sid_sorted, self.order = a["sid"][order], order
        self.dur = a["end"] - a["start"]
        self.pidx = self._index(a["parent"])
        self.self_time = self.dur - self._covered()

    def _index(self, ids: np.ndarray) -> np.ndarray:
        """Row of each span id in `ids`, -1 where absent."""
        if self.sid_sorted.size == 0:
            return np.full(ids.size, -1)
        pos = np.clip(np.searchsorted(self.sid_sorted, ids), 0, self.sid_sorted.size - 1)
        return np.where(self.sid_sorted[pos] == ids, self.order[pos], -1)

    def _covered(self) -> np.ndarray:
        """Per span, the length of the union of its children's intervals."""
        n = self.dur.size
        kids = np.nonzero(self.pidx >= 0)[0]
        kids = kids[np.lexsort((self.a["start"][kids], self.pidx[kids]))]
        p, s, e = self.pidx[kids], self.a["start"][kids], self.a["end"][kids]
        covered = np.bincount(p, weights=e - s, minlength=n)
        overlapping = p[1:][(p[1:] == p[:-1]) & (s[1:] < e[:-1])]
        for g in np.unique(overlapping):  # only pool spans have concurrent children
            sel = p == g
            covered[g] = union_length(s[sel], e[sel])
        return covered

    def _name_ids(self, names: tuple[str, ...]) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def rows(self, names: tuple[str, ...]) -> np.ndarray:
        return np.nonzero(np.isin(self.a["name"], self._name_ids(names)))[0]

    def self_of(self, *names: str) -> float:
        return float(self.self_time[self.rows(names)].sum())

    def calls(self, *names: str) -> int:
        return int(self.rows(names).size)

    def layers(self) -> np.ndarray:
        """Layer name per span; a pool belongs to the layer that started it."""
        table = np.array([n.split(".")[0] for n in self.names] + [""], dtype=object)
        layer = table[self.a["name"]]
        for i in self.rows(("pool",)):
            layer[i] = layer[self.pidx[i]] if self.pidx[i] >= 0 else "bench"
        return layer

    def children_named(self, child: str, parent: str) -> int:
        """Spans named `child` whose parent span is named `parent`."""
        pr = self.pidx[self.rows((child,))]
        pr = pr[pr >= 0]
        return int(np.isin(self.a["name"][pr], self._name_ids((parent,))).sum())

    def pool_efficiency(self, layer: str) -> float:
        """Busy time of a layer's pool workers / (workers x the starting call)."""
        busy = capacity = 0.0
        layers = self.layers()
        for sid, workers in self.pools:
            row = int(self._index(np.array([sid]))[0])
            if row < 0 or self.pidx[row] < 0 or layers[row] != layer:
                continue
            busy += float(self.dur[self.pidx == row].sum())
            capacity += workers * float(self.dur[self.pidx[row]])
        return busy / capacity if capacity else 0.0

    def self_by_layer(self) -> dict[str, float]:
        layers = self.layers()
        return {lay: float(self.self_time[layers == lay].sum()) for lay in np.unique(layers)}

    def union_of_layer(self, layer: str) -> float:
        rows = np.nonzero(self.layers() == layer)[0]
        return union_length(self.a["start"][rows], self.a["end"][rows])


def union_length(start: np.ndarray, end: np.ndarray) -> float:
    if start.size == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    s, e = start[order], end[order]
    reach = np.maximum.accumulate(e)
    prev = np.concatenate(([s[0]], reach[:-1]))
    return float(np.maximum(0.0, e - np.maximum(s, prev)).sum())


# Per-layer metrics: name -> unit. Every *_s is a self time (see module doc).
PER_LAYER = {
    "sieve.segment_s": "s",
    "sieve.segments": "count",
    "sieve.swept": "count",
    "sieve.members": "count",
    "sieve.yield": "ratio",
    "sieve.divide_ops_computed": "count",
    "sieve.bytes_computed": "B",
    "sieve.plan_s": "s",
    "sieve.primes_s": "s",
    "sieve.primes_table_max": "count",
    "sieve.build_sieve_s": "s",
    "sieve.thread_eff": "ratio",
    "sieve.self_s": "s",
    "sieve.wall_share": "ratio",
    "sums.self_s": "s",
    "sums.terms": "count",
    "sums.calls": "count",
    "sums.conv_self_s": "s",
    "sums.conv_tuples": "count",
    "decomp.buchstab_self_s": "s",
    "decomp.buchstab_tuples": "count",
    "decomp.regroup_self_s": "s",
    "decomp.splits_s": "s",
    "decomp.splits_calls": "count",
    "decomp.lambda_s": "s",
    "decomp.partition_s": "s",
    "decomp.self_s": "s",
    "arith.factorize_calls": "count",
    "arith.factorize_s": "s",
    "arith.floor_quotient_calls": "count",
    "arith.fsum_s": "s",
    "arith.self_s": "s",
    "bounds.self_s": "s",
    "bounds.reports": "count",
    "optimizer.oracle_s": "s",
    "optimizer.closed_form_s": "s",
    "cli.self_s": "s",
    "cli.self_s.sum": "s",
    "cli.self_s.sieve": "s",
    "cli.self_s.scan": "s",
    "cli.self_s.verify": "s",
    "cli.scan_cells": "count",
    "cli.pool_eff": "ratio",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}
# Counts that must repeat exactly from pass to pass and run to run.
EXACT = ("sieve.segments", "sieve.swept", "sieve.members", "sieve.divide_ops_computed",
         "sums.terms", "sums.calls", "sums.conv_tuples", "decomp.buchstab_tuples",
         "decomp.splits_calls", "arith.factorize_calls", "arith.floor_quotient_calls",
         "bounds.reports", "cli.scan_cells", "sieve.primes_table_max")


def layer_metrics(sp: Spans, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took `wall` seconds."""
    c = sp.counts
    segments = sp.calls("sieve.segment")
    if segments != c.get("sieve.planned_segments", 0):
        raise TraceSetupError(
            f"{segments} segments sieved but {c.get('sieve.planned_segments', 0)} planned: "
            "the computed sieve counts assume every planned segment is sieved")
    by_layer = sp.self_by_layer()
    pools = sp.rows(("pool",))
    sums_pool_self = float(sp.self_time[pools][sp.layers()[pools] == "sums"].sum())
    swept, members = c.get("sieve.swept", 0), c.get("sieve.members", 0)
    ops = c.get("sieve.divide_ops_computed", 0)
    m = {
        "sieve.segment_s": sp.self_of("sieve.segment"),
        "sieve.segments": segments,
        "sieve.swept": swept,
        "sieve.members": members,
        "sieve.yield": members / swept if swept else 0.0,
        "sieve.divide_ops_computed": ops,
        # int64 read+write per division; per integer: arange write, copy
        # read+write, compare read, mask write; gather read+write per member.
        "sieve.bytes_computed": 16 * ops + 33 * swept + 16 * members,
        "sieve.plan_s": sp.self_of("sieve.plan"),
        "sieve.primes_s": sp.self_of("sieve.primes"),
        "sieve.primes_table_max": c.get("sieve.primes_table_max", 0),
        "sieve.build_sieve_s": sp.self_of("sieve.build_sieve"),
        "sieve.thread_eff": sp.pool_efficiency("sums"),
        "sieve.wall_share": sp.union_of_layer("sieve") / wall,
        "sums.self_s": sp.self_of("sums.sum_power", "sums.sum_theta", "sums.sum_linear")
        + sums_pool_self,
        "sums.terms": c.get("sums.terms", 0),
        "sums.calls": sp.calls("sums.sum_power", "sums.sum_theta"),
        "sums.conv_self_s": sp.self_of("sums.sum_prime_convolution"),
        "sums.conv_tuples": sp.children_named("arith.floor_quotient", "sums.sum_prime_convolution"),
        "decomp.buchstab_self_s": sp.self_of("decomp.buchstab_expand"),
        "decomp.buchstab_tuples": sp.children_named("arith.floor_quotient", "decomp.buchstab_expand"),
        "decomp.regroup_self_s": sp.self_of("decomp.bilinear_regroup", "decomp.relaxed_tuple_sum",
                                            "decomp.regrouped_tuple_sum"),
        "decomp.splits_s": sp.self_of("decomp.count_admissible_splits", "decomp.w_split"),
        "decomp.splits_calls": sp.calls("decomp.count_admissible_splits", "decomp.w_split"),
        "decomp.lambda_s": sp.self_of("decomp.first_vaughan_counterexample",
                                      "decomp.first_heath_brown_counterexample",
                                      "decomp.heath_brown_lambda_check", "decomp.arith_tables"),
        "decomp.partition_s": sp.self_of("decomp.split_partition_sums"),
        "arith.factorize_calls": sp.calls("arith.factorize"),
        "arith.factorize_s": sp.self_of("arith.factorize"),
        "arith.floor_quotient_calls": sp.calls("arith.floor_quotient"),
        "arith.fsum_s": sp.self_of("arith.fsum"),
        "bounds.reports": sp.calls("bounds.report"),
        "optimizer.oracle_s": sp.self_of("optimizer.oracle_optimal_omega"),
        "optimizer.closed_form_s": sp.self_of("optimizer.optimal_omega"),
        "cli.self_s.sum": sp.self_of("cli.cmd_sum"),
        "cli.self_s.sieve": sp.self_of("cli.cmd_sieve"),
        "cli.self_s.scan": sp.self_of("cli.cmd_scan"),
        "cli.self_s.verify": sp.self_of("cli.cmd_verify"),
        "cli.scan_cells": c.get("cli.scan_cells", 0),
        "cli.pool_eff": sp.pool_efficiency("cli"),
        "trace.spans": int(sp.dur.size),
    }
    for layer in ("sieve", "decomp", "arith", "bounds", "cli"):
        m[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    return m
