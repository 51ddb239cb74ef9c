"""Outside-in tracing of the ``rankworth`` layers.

The layers are the package's modules.  A probe wraps one public callable
of a module for the length of a traced pass: a module-level function is
replaced wherever a ``rankworth`` module holds a reference to it (so
``fit`` as looked up in ``rankworth.tree`` is traced too), and a method is
replaced on its class.  Each call then records a span (name, start, end,
parent span, pass id) in memory.  A probe whose target no longer exists is
skipped, and the metrics that need it are reported as absent.

A separate memory pass wraps the compile and inference calls with
``tracemalloc`` instead, so that its cost stays out of the traced times.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict


def _file_bytes(args, kwargs, result):
    src = args[0] if args else None
    if isinstance(src, (str, os.PathLike)):
        return {"bytes": os.path.getsize(src)}
    return None


def _table_rows(args, kwargs, result):
    return {"rows": getattr(result, "n_rows", None)}


def _event_sizes(args, kwargs, result):
    events = args[0]
    return {"events": getattr(events, "n_events", None),
            "subsets": getattr(events, "n_subsets", None)}


def _fit_result(args, kwargs, result):
    return {"method": getattr(result, "method", None),
            "iterations": getattr(result, "iterations", None),
            "converged": getattr(result, "converged", None)}


def _tree_size(args, kwargs, result):
    leaves = len(result.leaves())
    return {"leaves": leaves, "nodes": 2 * leaves - 1}


# (module, attribute or Class.method, span name, extractor of span attributes)
PROBES = [
    ("rankworth.io", "read_preflib_soc", "io.read", _file_bytes),
    ("rankworth.io", "read_rank_csv", "io.read", _file_bytes),
    ("rankworth.rankings", "from_orderings", "rankings.build", _table_rows),
    ("rankworth.rankings", "from_rank_matrix", "rankings.build", _table_rows),
    ("rankworth.rankings", "group_rankings", "rankings.build", None),
    ("rankworth.rankings", "RankingsTable.max_tie_order", "rankings.tie_order", None),
    ("rankworth.network", "adjacency", "network.adjacency", None),
    ("rankworth.network", "connectivity", "network.connectivity", None),
    ("rankworth.network", "augment_with_pseudo_rankings", "network.augment", None),
    ("rankworth.likelihood", "EventSet.__init__", "likelihood.compile", _event_sizes),
    ("rankworth.likelihood", "EventSet.expected", "likelihood.expected", None),
    ("rankworth.likelihood", "EventSet.loglik", "likelihood.loglik", None),
    ("rankworth.likelihood", "EventSet.information", "likelihood.information", None),
    ("rankworth.fit", "fit", "fit.fit", _fit_result),
    ("rankworth.inference", "summarize", "inference.summarize", None),
    ("rankworth.inference", "quasi_variances", "inference.qv", None),
    ("rankworth.tree", "grow_tree", "tree.grow", _tree_size),
    ("rankworth.tree", "score_contributions", "tree.score", None),
    ("rankworth.tree", "instability_test", "tree.test", None),
    ("rankworth.tree", "best_split", "tree.split", None),
    ("rankworth.tree", "predict_node", "tree.predict", None),
]

# spans whose tracemalloc peak the memory pass records
MEMORY_SPANS = {"likelihood.compile": "likelihood.compile_peak_mb",
                "inference.summarize": "inference.peak_mb",
                "inference.qv": "inference.peak_mb"}


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, name, new):
        had = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, new)

    def undo(self):
        while self._undo:
            owner, name, old, had = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def _install(wrap) -> tuple[_Patches, set]:
    """Apply ``wrap(span_name, original, extractor)`` to every probe
    target that exists; return the patches and the span names covered."""
    patches, covered = _Patches(), set()
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "rankworth" or k.startswith("rankworth."))]
    for module_name, attr, span, extract in PROBES:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            original = None if cls is None else vars(cls).get(meth)
            if not callable(original):
                continue
            patches.replace(cls, meth, wrap(span, original, extract))
        else:
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            wrapper = wrap(span, original, extract)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        patches.replace(m, name, wrapper)
        covered.add(span)
    return patches, covered


class Tracer:
    """Spans of traced passes, kept in memory until :meth:`write`.

    A span is ``[name, start, end, parent index, pass id, attributes,
    outer, root]``: ``outer`` is false when a span of the same name is
    already open (so nested calls are not counted twice) and ``root`` is
    the name of the outermost open span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.covered: set = set()
        self.peaks: dict = defaultdict(float)
        self._stack: list[int] = []
        self._open = Counter()
        self._pass = -1
        self._patches = None

    # -- traced passes ------------------------------------------------

    def _span_wrapper(self, name, fn, extract):
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._pass, None,
                    open_[name] == 0, spans[stack[0]][0] if stack else name]
            spans.append(span)
            stack.append(idx)
            open_[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                open_[name] -= 1
            if extract is not None:
                try:
                    span[5] = extract(args, kwargs, result)
                except Exception:   # a changed result type leaves the metric absent
                    span[5] = None
            return result
        return wrapper

    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id
        self._patches, covered = _install(self._span_wrapper)
        self.covered |= covered

    def end_pass(self) -> None:
        self._patches.undo()
        self._patches = None

    # -- memory pass --------------------------------------------------

    def _peak_wrapper(self, name, fn, extract):
        metric = MEMORY_SPANS.get(name)
        if metric is None:
            return fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks[metric] = max(self.peaks[metric], peak)
        return wrapper

    def memory_pass(self, run) -> None:
        patches, covered = _install(self._peak_wrapper)
        try:
            run()
        finally:
            patches.undo()
        for span, metric in MEMORY_SPANS.items():
            if span in covered:
                self.peaks.setdefault(metric, 0.0)

    # -- output -------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass\tspan\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent, pid, *_rest) in enumerate(self.spans):
                fh.write(f"{pid}\t{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics: the median over traced passes of each pass's
        value, plus the memory pass's peaks.  Metrics whose probe is
        missing are left out."""
        by_pass = defaultdict(list)
        for i, span in enumerate(self.spans):
            by_pass[span[4]].append(i)
        per_pass = [self._pass_metrics(idx) for idx in by_pass.values()]
        out = {}
        for key in set().union(*per_pass) if per_pass else ():
            values = [m[key] for m in per_pass if key in m]
            if len(values) == len(per_pass):
                out[key] = statistics.median(values)
        out.update(self.peaks)
        return out

    def _pass_metrics(self, idx: list[int]) -> dict:
        spans = self.spans
        dur = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        attrs = defaultdict(list)
        for i in idx:
            name, start, end, parent, _, extra, outer, _ = spans[i]
            d = end - start
            if parent >= 0:
                child[parent] += d
            if not outer:
                continue
            dur[name] += d
            calls[name] += 1
            attrs[name].append(extra)

        def total(name, key):
            vals = [(a or {}).get(key) for a in attrs[name]]
            return None if None in vals else sum(vals)

        fits = [(spans[i], spans[i][2] - spans[i][1]) for i in idx
                if spans[i][0] == "fit.fit" and spans[i][6]]
        by_method = {"is": "iterative_scaling", "bfgs": "quasi_newton",
                     "lbfgs": "limited_memory_quasi_newton"}
        m = {
            "io.read_s": ("io.read", dur["io.read"]),
            "io.bytes": ("io.read", total("io.read", "bytes")),
            "rankings.build_s": ("rankings.build", dur["rankings.build"]),
            "rankings.tie_order_s": ("rankings.tie_order", dur["rankings.tie_order"]),
            "rankings.rows": ("rankings.build", sum((a or {}).get("rows") or 0
                                                    for a in attrs["rankings.build"])),
            "network.adjacency_s": ("network.adjacency", dur["network.adjacency"]),
            "network.connectivity_s": ("network.connectivity", dur["network.connectivity"]),
            "network.augment_s": ("network.augment", dur["network.augment"]),
            "likelihood.compile_s": ("likelihood.compile", dur["likelihood.compile"]),
            "likelihood.compile_calls": ("likelihood.compile", calls["likelihood.compile"]),
            "likelihood.events": ("likelihood.compile", total("likelihood.compile", "events")),
            "likelihood.subsets": ("likelihood.compile", total("likelihood.compile", "subsets")),
            "likelihood.expected_calls": ("likelihood.expected", calls["likelihood.expected"]),
            "likelihood.expected_s": ("likelihood.expected", dur["likelihood.expected"]),
            "likelihood.expected_us_per_call": (
                "likelihood.expected",
                1e6 * dur["likelihood.expected"] / max(calls["likelihood.expected"], 1)),
            "likelihood.loglik_calls": ("likelihood.loglik", calls["likelihood.loglik"]),
            "likelihood.loglik_s": ("likelihood.loglik", dur["likelihood.loglik"]),
            "likelihood.information_s": ("likelihood.information",
                                         dur["likelihood.information"]),
            "fit.calls": ("fit.fit", calls["fit.fit"]),
            "fit.fit_s": ("fit.fit", dur["fit.fit"]),
            "fit.self_s": ("fit.fit", sum(spans[i][2] - spans[i][1] - child[i] for i in idx
                                          if spans[i][0] == "fit.fit" and spans[i][6])),
            "fit.converged_share": ("fit.fit", (sum(bool((s[5] or {}).get("converged"))
                                                    for s, _ in fits) / len(fits))
                                    if fits else 0.0),
            "inference.summarize_s": ("inference.summarize", dur["inference.summarize"]),
            "inference.qv_s": ("inference.qv", dur["inference.qv"]),
            "tree.grow_s": ("tree.grow", dur["tree.grow"]),
            "tree.nodes": ("tree.grow", total("tree.grow", "nodes")),
            "tree.leaves": ("tree.grow", total("tree.grow", "leaves")),
            "tree.node_fit_s": ("fit.fit", sum(d for s, d in fits if s[7] == "tree.grow")),
            "tree.score_s": ("tree.score", dur["tree.score"]),
            "tree.test_s": ("tree.test", dur["tree.test"]),
            "tree.split_s": ("tree.split", dur["tree.split"]),
            "tree.split_calls": ("tree.split", calls["tree.split"]),
            "tree.predict_s": ("tree.predict", dur["tree.predict"]),
        }
        for short, method in by_method.items():
            chosen = [(s, d) for s, d in fits if (s[5] or {}).get("method") == method]
            m[f"fit.{short}_s"] = ("fit.fit", sum(d for _, d in chosen))
            its = [(s[5] or {}).get("iterations") for s, _ in chosen]
            m[f"fit.{short}_iterations"] = ("fit.fit", None if None in its else sum(its))
        return {k: v for k, (span, v) in m.items() if span in self.covered and v is not None}


def overhead(traced: list[float], untraced: list[float]) -> float:
    """Traced over untraced median pass time, minus one."""
    return statistics.median(traced) / statistics.median(untraced) - 1.0
