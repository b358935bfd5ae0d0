"""Span tracer that wraps the library's layer functions from outside.

Each wrapped call records a span (name, start, end, parent, raised) in
flat arrays kept in memory; counters record the work a call did (array
elements, (c, d) pairs, terms, Mellin grid sizes).  Per-layer metrics are
derived from the spans when the run ends: a span's self time is its
duration minus the time covered by its child spans.

The library imports several names by value (``maass`` holds its own
reference to ``whittaker.w_eval``, ``whittaker`` to
``specfun._log_gamma_array``), so a wrapper replaces the original object
in every ``sl3maass`` module namespace that holds it, not only in the
defining module.  Methods are patched on their class.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "sl3maass"

# (defining module, attribute or Class.method, span name)
TARGETS = (
    ("specfun", "bessel_k_scaled", "specfun.bessel_k"),
    ("specfun", "bessel_k_prime_scaled", "specfun.bessel_k"),
    ("specfun", "_log_gamma_array", "specfun.log_gamma"),
    ("quadrature", "trapezoid_line", "quadrature.trapezoid"),
    ("whittaker", "w_eval", "whittaker.w_eval"),
    ("whittaker", "w_stade", "whittaker.w_stade"),
    ("whittaker", "w_series_small", "whittaker.w_series_small"),
    ("whittaker", "build_pq_table", "whittaker.pq_table"),
    ("whittaker", "build_fixed_d_cache", "whittaker.fixed_d.build"),
    ("whittaker", "w_mellin_fixed_d", "whittaker.fixed_d.query"),
    ("maass", "MaassForm.cutoff_value", "maass.cutoff"),
    ("maass", "enumerate_cd", "maass.enumerate_cd"),
    ("maass", "eval_maass_report", "maass.eval"),
    ("maass", "MaassForm.coefficient", "maass.coefficient"),
    ("maass", "iwasawa_act", "maass.iwasawa_act"),
    ("coeffio", "load_coefficient_file", "coeffio.load"),
)

INTEGRAND = "quadrature.integrand"


def _span_integrand(tracer, args, kwargs):
    """Give every trapezoid node a span of its own.  Its self time is the
    caller's integrand arithmetic and is credited to the caller's layer."""
    nid = tracer._name_id(INTEGRAND)

    def spanned(f):
        def integrand(x):
            return tracer._call(nid, f, (x,), {})
        return integrand

    if args:
        return (spanned(args[0]),) + tuple(args[1:]), kwargs
    return args, dict(kwargs, f=spanned(kwargs["f"]))


def _count_result(tracer, name, args, result):
    if name == "specfun.log_gamma":
        tracer.counters["specfun.log_gamma.elements"] += int(np.size(args[0]))
    elif name == "maass.enumerate_cd":
        tracer.counters["maass.enumerate_cd.pairs"] += len(result)
    elif name == "maass.eval":
        tracer.counters["maass.eval.terms"] += result[1].n_terms
    elif name == "whittaker.fixed_d.build":
        grid = result.grid
        tracer.counters["whittaker.fixed_d.inner_terms"] += (
            (2 * grid.N1 + 1) * (2 * grid.N2 + 1))


_COUNTED = {"specfun.log_gamma", "maass.enumerate_cd", "maass.eval",
            "whittaker.fixed_d.build"}


class Tracer:
    """Records spans for wrapped library calls between install() and
    uninstall()."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_raised = array("b")
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self.span_raised.append(0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()
        if raised:
            self.span_raised[idx] = 1

    def _call(self, nid: int, fn, args, kwargs):
        """fn(*args, **kwargs) inside a span of name id nid."""
        idx = self._open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)
        return result

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self
        counted = name in _COUNTED
        nodes = name == "quadrature.trapezoid"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if nodes:
                args, kwargs = _span_integrand(tracer, args, kwargs)
            result = tracer._call(nid, fn, args, kwargs)
            if counted:
                _count_result(tracer, name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every namespace of the package that holds
        it.  Targets the library no longer defines are listed in
        self.missing and their metrics read 0."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, attr, name in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            cls_name, _, meth = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = None if owner is None else vars(owner).get(meth)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            if cls_name:
                self._patch(owner, meth, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)


class TraceSummary:
    """Per-name call counts, self and inclusive times, and the derived
    per-layer metrics."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.span_name)
        names = tracer.names
        name_of = [names[i] for i in tracer.span_name]
        parent = tracer.span_parent
        dur = [tracer.span_end[i] - tracer.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.nodes = 0
        for i in range(n):
            name = name_of[i]
            if name == INTEGRAND:
                # credit the integrand to whoever called the trapezoid rule
                self.nodes += 1
                caller = parent[parent[i]]
                name = name_of[caller] if caller >= 0 else "quadrature.trapezoid"
            else:
                self.calls[name] += 1
                self.total_s[name] += dur[i]
            self.self_s[name] += dur[i] - child[i]
        self.root_s = sum(dur[i] for i in range(n) if parent[i] < 0)
        self.counters = dict(tracer.counters)
        self.missing = list(tracer.missing)

        # routing: the first algorithm span directly under each w_eval
        # decides the route; a raising series span followed by an integral
        # span is a fallback
        children: dict[int, list[int]] = defaultdict(list)
        for i in range(n):
            if parent[i] >= 0:
                children[parent[i]].append(i)
        route = {"smallarg": 0, "stade": 0}
        fallbacks = 0
        validations = 0
        validation_s = 0.0
        queries = 0
        query_self_s = 0.0
        for i in range(n):
            kind = name_of[i]
            if kind == "whittaker.w_eval":
                algos = [c for c in children[i]
                         if name_of[c] in ("whittaker.w_series_small", "whittaker.w_stade")]
                if algos:
                    first = name_of[algos[0]]
                    route["smallarg" if first == "whittaker.w_series_small" else "stade"] += 1
                    if (first == "whittaker.w_series_small" and tracer.span_raised[algos[0]]
                            and any(name_of[c] == "whittaker.w_stade" for c in algos[1:])):
                        fallbacks += 1
            elif kind == "whittaker.fixed_d.build":
                checks = [c for c in children[i]
                          if name_of[c] in ("whittaker.w_eval", "whittaker.fixed_d.query")]
                if any(name_of[c] == "whittaker.w_eval" for c in checks):
                    validations += 1
                validation_s += sum(dur[c] for c in checks)
            elif kind == "whittaker.fixed_d.query":
                p = parent[i]
                if p < 0 or name_of[p] != "whittaker.fixed_d.build":
                    queries += 1
                    query_self_s += dur[i] - child[i]
        self.route = route
        self.fallbacks = fallbacks
        self.validations = validations
        self.validation_s = validation_s
        self.queries = queries
        self.query_self_s = query_self_s
        self.series_raised = sum(1 for i in range(n)
                                 if tracer.span_raised[i]
                                 and name_of[i] == "whittaker.w_series_small")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        c, s, k = self.calls, self.self_s, self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        builds = c["whittaker.fixed_d.build"]
        return {
            "specfun.bessel_k.calls": (c["specfun.bessel_k"], "count"),
            "specfun.bessel_k.self_s": (s["specfun.bessel_k"], "s"),
            "specfun.log_gamma.elements": (k.get("specfun.log_gamma.elements", 0), "count"),
            "specfun.log_gamma.self_s": (s["specfun.log_gamma"], "s"),
            "quadrature.trapezoid.calls": (c["quadrature.trapezoid"], "count"),
            "quadrature.trapezoid.nodes": (self.nodes, "count"),
            "quadrature.trapezoid.self_s": (s["quadrature.trapezoid"], "s"),
            "whittaker.w_eval.calls": (c["whittaker.w_eval"], "count"),
            "whittaker.w_eval.self_s": (s["whittaker.w_eval"], "s"),
            "whittaker.route.smallarg": (self.route["smallarg"], "count"),
            "whittaker.route.stade": (self.route["stade"], "count"),
            "whittaker.fallbacks": (self.fallbacks, "count"),
            "whittaker.w_series_small.raised": (self.series_raised, "count"),
            "whittaker.w_stade.calls": (c["whittaker.w_stade"], "count"),
            "whittaker.w_stade.self_s": (s["whittaker.w_stade"], "s"),
            "whittaker.w_series_small.calls": (c["whittaker.w_series_small"], "count"),
            "whittaker.w_series_small.self_s": (s["whittaker.w_series_small"], "s"),
            "whittaker.pq_table.builds": (c["whittaker.pq_table"], "count"),
            "whittaker.pq_table.self_s": (s["whittaker.pq_table"], "s"),
            "whittaker.pq_table.builds_per_series": (
                ratio(c["whittaker.pq_table"], c["whittaker.w_series_small"]), "ratio"),
            "whittaker.fixed_d.builds": (builds, "count"),
            "whittaker.fixed_d.build_self_s": (s["whittaker.fixed_d.build"], "s"),
            "whittaker.fixed_d.inner_terms": (k.get("whittaker.fixed_d.inner_terms", 0), "count"),
            "whittaker.fixed_d.validations": (self.validations, "count"),
            "whittaker.fixed_d.validation_s": (self.validation_s, "s"),
            "whittaker.fixed_d.queries": (self.queries, "count"),
            "whittaker.fixed_d.query_self_s": (self.query_self_s, "s"),
            "whittaker.fixed_d.queries_per_build": (ratio(self.queries, builds), "ratio"),
            "maass.cutoff.self_s": (s["maass.cutoff"], "s"),
            "maass.cutoff.total_s": (self.total_s["maass.cutoff"], "s"),
            "maass.enumerate_cd.calls": (c["maass.enumerate_cd"], "count"),
            "maass.enumerate_cd.pairs": (k.get("maass.enumerate_cd.pairs", 0), "count"),
            "maass.enumerate_cd.self_s": (s["maass.enumerate_cd"], "s"),
            "maass.eval.calls": (c["maass.eval"], "count"),
            "maass.eval.self_s": (s["maass.eval"], "s"),
            "maass.eval.terms": (k.get("maass.eval.terms", 0), "count"),
            "maass.eval.builds_per_eval": (ratio(builds, c["maass.eval"]), "ratio"),
            "maass.coefficient.calls": (c["maass.coefficient"], "count"),
            "maass.iwasawa_act.self_s": (s["maass.iwasawa_act"], "s"),
            "coeffio.load.self_s": (s["coeffio.load"], "s"),
        }
