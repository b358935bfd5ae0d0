"""Tracer self-check: on small inputs the wrapper counts must equal what
the library reports about itself, so a wrapper that misses a call site
shows up as a mismatch.

    python3 -m pytest -q perfbench/test_tracer.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

lib = W.lib
SMALL_FORM_EPS = 1e-5


def _wall_bound() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")


def _orbit_counts(tracer: Tracer):
    """Evaluate a small form at a base point and two word images; return
    the trace summary and the library's own statistics per evaluation."""
    form = lib.MaassForm(params=W.GEN, eps=SMALL_FORM_EPS,
                         coeff_fn=lambda m1, m2: 1.0 / (1.0 + m1 * m2))
    z = lib.H3Point(0.1, 0.2, -0.3, 1.0, 1.1)
    stats = []
    tracer.install()
    try:
        form.cutoff_value()
        for word in ("", "S2", "S1"):
            point = lib.iwasawa_act(lib.word_matrix(word), z) if word else z
            stats.append(lib.eval_maass_report(form, point)[1])
    finally:
        tracer.uninstall()
    return tracer.summary(), stats


def count_mismatches(summary, stats) -> list[str]:
    """Wrapper counts that disagree with MaassEvalStats; n_caches counts
    the form's caches, so its growth is the number of builds."""
    m = summary.layer_metrics()
    out = []
    builds = stats[-1].n_caches
    if m["whittaker.fixed_d.builds"][0] != builds:
        out.append(f"builds {m['whittaker.fixed_d.builds'][0]} != n_caches growth {builds}")
    terms = sum(s.n_terms for s in stats)
    if m["maass.eval.terms"][0] != terms:
        out.append(f"terms {m['maass.eval.terms'][0]} != sum of n_terms {terms}")
    if m["maass.eval.calls"][0] != len(stats):
        out.append(f"eval calls {m['maass.eval.calls'][0]} != {len(stats)}")
    return out


def test_orbit_counts_match_library_stats():
    summary, stats = _orbit_counts(Tracer())
    assert stats[-1].n_caches > stats[0].n_caches > 0
    assert count_mismatches(summary, stats) == []
    m = summary.layer_metrics()
    # every validated build checks its range with w_eval
    assert m["whittaker.fixed_d.validations"][0] == stats[-1].n_caches
    assert m["whittaker.fixed_d.queries"][0] > 0


def test_missed_call_site_is_detected():
    """A tracer that wraps build_fixed_d_cache only where it is defined
    misses maass's by-value import, and the count check catches it."""
    tracer = Tracer()
    install = tracer.install

    def install_defining_module_only():
        install()
        maass = sys.modules["sl3maass.maass"]
        for owner, key, original in tracer._patches:
            if owner is maass and key == "build_fixed_d_cache":
                setattr(maass, key, original)

    tracer.install = install_defining_module_only
    summary, stats = _orbit_counts(tracer)
    assert any(s.startswith("builds") for s in count_mismatches(summary, stats))


def test_demand_counts_match_library_stats():
    tracer = Tracer()
    tracer.install()
    try:
        stats = lib.coefficient_demand(W.GEN, lib.H3Point(0.0, 0.0, 0.0, 1.0, 1.0), 1e-6)
    finally:
        tracer.uninstall()
    m = tracer.summary().layer_metrics()
    assert m["whittaker.fixed_d.builds"][0] == stats.n_caches > 0
    assert m["whittaker.fixed_d.validations"][0] == 0
    assert m["maass.eval.calls"][0] == 1
    assert m["maass.coefficient.calls"][0] == 0


@pytest.fixture(scope="module")
def mix_trace():
    wl = W.WORKLOADS["whittaker-mix"]
    ops = wl.inputs(3, 1.0, run.CACHE_DIR)
    state = wl.setup(3, run.CACHE_DIR)
    tracer = Tracer()
    tracer.install()
    try:
        outcomes, _, errors, wall = W.timed_pass(wl, state, ops, tracer)
    finally:
        tracer.uninstall()
    return wl, state, ops, tracer.summary(), errors, wall


def test_route_counts_match_dispatcher(mix_trace):
    _, state, ops, summary, errors, _ = mix_trace
    assert errors == []
    tally = {"smallarg": 0, "stade": 0}
    for op in ops:
        route, _ = lib.choose_algorithm(state[op["triple"]], lib.WhittakerArgs(*op["y"]))
        tally[route] += 1
    m = summary.layer_metrics()
    assert tally["smallarg"] > 0 and tally["stade"] > 0
    assert m["whittaker.route.smallarg"][0] == tally["smallarg"]
    assert m["whittaker.route.stade"][0] == tally["stade"]
    assert m["whittaker.w_eval.calls"][0] == len(ops)
    assert m["whittaker.pq_table.builds"][0] == m["whittaker.w_series_small.calls"][0]


def test_self_times_sum_to_traced_wall(mix_trace):
    *_, summary, _, wall = mix_trace
    assert all(v >= 0.0 for v in summary.self_s.values())
    layer_sum = sum(v for k, v in summary.self_s.items() if k != "bench.op")
    total = layer_sum + summary.self_s["bench.op"]
    assert total == pytest.approx(summary.root_s, rel=1e-9)
    assert abs(total - wall) <= _wall_bound() * wall
    # the library's work is inside the layers, not in the benchmark loop
    assert layer_sum >= 0.9 * wall
