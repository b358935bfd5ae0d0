"""The three benchmark workloads: seeded inputs, the timed operation, the
reference values and the correctness gates.

Every call into the library goes through the package namespace
(``lib.w_eval``, not a name imported here), so the tracer's wrappers see
the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

import numpy as np

import sl3maass as lib

LIFT_R = 9.533695
LIFT = lib.LanglandsParams(-2.0 * LIFT_R, 2.0 * LIFT_R)
GEN = lib.LanglandsParams(-3.7, 1.2)

# an op agreeing with its reference to fewer digits than this fails
MIN_DIGITS_OK = 6.0
# agreement to the last bit of binary64
DIGITS_CAP = -math.log10(2.0 ** -53)


def digits(rel_dev: float) -> float:
    """-log10 of a relative deviation, capped at binary64 resolution."""
    if rel_dev <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_dev))


class Workload:
    name = ""
    passes = 1      # untraced timed passes over the op list, each freshly set up

    def inputs(self, seed: int, seconds: float, cache_dir: str) -> list[dict]:
        """The op list, a pure function of (seed, seconds)."""
        raise NotImplementedError

    def setup(self, seed: int, cache_dir: str):
        """The library-side set-up every run pays before its first op."""
        raise NotImplementedError

    def run(self, state, op: dict):
        """One timed op; returns what the library returned."""
        raise NotImplementedError

    def ref_jobs(self, ops: list[dict], seed: int) -> list:
        """The reference computations the op list needs, as JSON values.
        They name the stored or cached results, and helper processes share
        them out."""
        raise NotImplementedError

    def ref_run(self, job):
        """One reference job, by a route other than the timed one; returns
        a JSON value."""
        raise NotImplementedError

    def ref_assemble(self, ops: list[dict], seed: int, results: list) -> list:
        """The reference of every op, from the results of its jobs."""
        raise NotImplementedError

    def check(self, ops, outcomes, refs) -> tuple[list, list, dict]:
        """(digits per op, failed gate per op, details).  An op that raised
        has outcome and digits None; a gate entry is None or the reason it
        failed."""
        raise NotImplementedError


def timed_pass(wl: Workload, state, ops, tracer=None):
    """Closed loop with one caller: each op starts when the previous one
    returns.  Returns (outcomes, latencies in s, errors, wall time in s);
    an op that raised NumericsError has outcome None."""
    outcomes, latencies, errors = [], [], []
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(state, op)
            else:
                with tracer.span("bench.op"):
                    out = wl.run(state, op)
        except lib.NumericsError as exc:
            out = None
            errors.append(f"op {len(outcomes)}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        outcomes.append(out)
    return outcomes, latencies, errors, time.perf_counter() - t_pass


def judge(wl: Workload, ops, outcomes, refs) -> tuple[float, list[bool], dict]:
    """(min_digits, failed flag per op, gate details) for one pass.  An op
    fails when it raised, agrees with its reference to fewer than
    MIN_DIGITS_OK digits, or fails a gate."""
    dig, gates, detail = wl.check(ops, outcomes, refs)
    failed = [d is None or d < MIN_DIGITS_OK or g is not None for d, g in zip(dig, gates)]
    measured = [d for d in dig if d is not None]
    detail["gate_failures"] = [g for g in gates if g is not None]
    return (min(measured) if measured else 0.0), failed, detail


# ---------------------------------------------------------------------------
# lift-demand: ROADMAP E1 at full size
# ---------------------------------------------------------------------------

# acceptance figures of coefficient_demand(LIFT, identity, 1e-12), recorded
# at the commit that introduced this benchmark
LIFT_REFERENCE = {"cutoff": 9.313225746154785, "max_contributing_m2": 100, "max_m1": 7}
LIFT_M2_RANGE = (90, 150)


class LiftDemand(Workload):
    name = "lift-demand"

    def inputs(self, seed, seconds, cache_dir):
        # one fixed op: E1 is acceptance-gated and is neither resized nor seeded
        return [{"point": [0.0, 0.0, 0.0, 1.0, 1.0], "eps": 1e-12}]

    def setup(self, seed, cache_dir):
        return LIFT

    def run(self, state, op):
        return lib.coefficient_demand(state, lib.H3Point(*op["point"]), op["eps"])

    def ref_jobs(self, ops, seed):
        # the references are the recorded acceptance figures
        return []

    def ref_assemble(self, ops, seed, results):
        return [LIFT_REFERENCE for _ in ops]

    def check(self, ops, outcomes, refs):
        dig, gates, detail = [], [], {}
        lo, hi = LIFT_M2_RANGE
        for stats, ref in zip(outcomes, refs):
            gates.append(None)
            if stats is None:
                dig.append(None)
                continue
            detail.update({k: getattr(stats, k) for k in
                           ("cutoff", "max_contributing_m2", "max_m1", "n_caches")})
            dig.append(digits(max(abs(getattr(stats, k) - v) / abs(v) for k, v in ref.items())))
            if not lo <= stats.max_contributing_m2 <= hi:
                gates[-1] = (f"max_contributing_m2={stats.max_contributing_m2} "
                             f"outside [{lo}, {hi}]")
        return dig, gates, detail


# ---------------------------------------------------------------------------
# form-orbit: a seeded form evaluated along group orbits (generalizes E2)
# ---------------------------------------------------------------------------

FORM_EPS = 1e-8
# Words applied to each base point; the base point itself is the empty
# word.  Translations and S2 keep every D = (m1 y1)^2 m2 y2 of the base
# point, so they reuse its fixed-D caches (warm); S1 and S1 S2 S1 land on
# new values of D (cold).  Ten warm ops against three cold ones put the
# median op in the warm mode.  With five groups or more and two passes the tail
# (ten samples beyond it) is the 11th slowest of at least 30 cold ops, inside
# the cold mode.
ORBIT_WORDS = ("", "T1", "T2", "T3", "T1 T2", "T2 T3", "T1 T3",
               "S2", "T1 S2", "T2 S2", "T3 S2", "S1", "S1 S2 S1")
TRANSLATION_LETTERS = frozenset({"T1", "T2", "T3"})
TRANSLATION_TOL = 1e-12
ORBIT_MIN_GROUPS = 5
ORBIT_GROUP_S = 2.0          # base points per run: seconds / this, at least 5
ORBIT_Y = (0.95, 1.05)
# R3 sequence: powers of 1/phi3, phi3 the real root of x^4 = x + 1
R3_ALPHA = 1.0 / 1.2207440846057594 ** np.arange(1, 4)
COEFF_M1, COEFF_M2 = 12, 80
# the seeded table is a positive combination of these fixed tables
COEFF_BASES = 2
COEFF_WEIGHTS = (0.5, 1.5)


def _coeff_basis(k: int) -> np.ndarray:
    """Fixed table k: B_k(m1, m2) = u/(1 + m1 m2), u uniform in [0.5, 1.5]."""
    m = np.arange(1, COEFF_M1 + 1)[:, None] * np.arange(1, COEFF_M2 + 1)[None, :]
    return np.random.default_rng([k, 5]).uniform(0.5, 1.5, m.shape) / (1.0 + m)


def _coeff_weights(seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 2]).uniform(*COEFF_WEIGHTS, COEFF_BASES)


def _coeff_table(seed: int) -> np.ndarray:
    return sum(w * _coeff_basis(k) for k, w in enumerate(_coeff_weights(seed)))


def _coeff_path(cache_dir: str, seed: int) -> str:
    """The seed's coefficient file, named by the table it holds."""
    digest = hashlib.sha256(_coeff_table(seed).tobytes()).hexdigest()[:16]
    return os.path.join(cache_dir, f"form-orbit-{digest}.coef")


def _coeff_form(table: np.ndarray):
    coeffs = {(i + 1, j + 1): complex(table[i, j])
              for i in range(COEFF_M1) for j in range(COEFF_M2)}
    return lib.MaassForm(params=GEN, coeffs=coeffs, eps=FORM_EPS)


def _untranslated(word: str) -> str:
    """`word` without its leading translations.  The expansion is invariant
    under them, so both words give the same value; the shorter one carries
    the reference and is the other side of the translation gate."""
    letters = word.split()
    while letters and letters[0] in TRANSLATION_LETTERS:
        letters.pop(0)
    return " ".join(letters)


class FormOrbit(Workload):
    name = "form-orbit"
    # a second pass over the same op list doubles the timed work without
    # more references
    passes = 2

    def inputs(self, seed, seconds, cache_dir):
        path = _coeff_path(cache_dir, seed)
        if not os.path.exists(path):
            tmp = path + f".{os.getpid()}.tmp"
            lib.write_coefficient_file(tmp, _coeff_form(_coeff_table(seed)))
            os.replace(tmp, path)
        groups = max(ORBIT_MIN_GROUPS, math.ceil(seconds / ORBIT_GROUP_S))
        # the base point sets a group's work (its terms and caches, and the
        # images under S1 and S1 S2 S1), so the base points are a fixed
        # design, the same for every seed: (y1, y2) a Latin design over
        # ORBIT_Y and x the R3 low-discrepancy sequence over [-0.5, 0.5]^3.
        # The seed draws the coefficients, which set the values, and the
        # order of the groups.
        lo, hi = ORBIT_Y
        level = lo + (hi - lo) * (np.arange(groups) + 0.5) / groups
        step = next(k for k in range(2, groups + 1) if math.gcd(k, groups) == 1)
        y = np.array([level, level[(np.arange(groups) * step) % groups]]).T
        x = (np.outer(np.arange(1, groups + 1), R3_ALPHA) % 1.0) - 0.5
        order = np.random.default_rng([seed, 3]).permutation(groups)
        ops = []
        for g, site in enumerate(order):
            base = [float(v) for v in (*x[site], *y[site])]
            ops += [{"group": g, "site": int(site), "base": base, "word": w}
                    for w in ORBIT_WORDS]
        return ops

    def setup(self, seed, cache_dir):
        form = lib.load_coefficient_file(_coeff_path(cache_dir, seed), eps=FORM_EPS)
        form.cutoff_value()
        return form

    @staticmethod
    def point(op: dict, word: str):
        z = lib.H3Point(*op["base"])
        if not word:
            return z
        return lib.iwasawa_act(lib.word_matrix(word), z)

    def run(self, state, op):
        return lib.eval_maass_report(state, self.point(op, op["word"]))[0]

    def ref_jobs(self, ops, seed):
        """One job per base point and word without leading translations.
        The value is linear in the coefficients, so a job evaluates each
        fixed table, and any seed's references are the seed's combination
        of the same results: they are computed once for all seeds."""
        jobs = {(op["site"], _untranslated(op["word"])): op["base"] for op in ops}
        return [{"base": base, "word": word} for (_, word), base in sorted(jobs.items())]

    def ref_run(self, job):
        z = self.point(job, job["word"])
        out = []
        for k in range(COEFF_BASES):
            v, _ = lib.eval_maass_report(_coeff_form(_coeff_basis(k)), z, backend="stade")
            out.append([v.real, v.imag])
        return out

    def ref_assemble(self, ops, seed, results):
        weights = _coeff_weights(seed)
        value = {(tuple(job["base"]), job["word"]): sum(w * complex(*r) for w, r in zip(weights, res))
                 for job, res in zip(self.ref_jobs(ops, seed), results)}
        refs = [value[(tuple(op["base"]), _untranslated(op["word"]))] for op in ops]
        return [[v.real, v.imag] for v in refs]

    def check(self, ops, outcomes, refs):
        dig, gates = [], []
        worst_translation = 0.0
        value_at: dict[tuple[int, str], complex] = {}
        for op, value, ref in zip(ops, outcomes, refs):
            gates.append(None)
            if value is None:
                dig.append(None)
                continue
            ref_c = complex(*ref)
            dig.append(digits(abs(value - ref_c) / abs(ref_c)))
            word, g = op["word"], op["group"]
            value_at[(g, word)] = value
            same = (g, _untranslated(word))
            if same[1] != word and same in value_at:
                resid = abs(value - value_at[same])
                worst_translation = max(worst_translation, resid)
                if not resid < TRANSLATION_TOL:
                    gates[-1] = (f"|f({word} z) - f({same[1] or 'id'} z)| = {resid:.3e} "
                                 f">= {TRANSLATION_TOL:g} in group {g}")
        return dig, gates, {"worst_translation_residual": worst_translation,
                            "groups": 1 + max(op["group"] for op in ops)}


# ---------------------------------------------------------------------------
# whittaker-mix: the dispatcher on both sides of its routing boundary
# ---------------------------------------------------------------------------

MIX_BOX = (0.05, 3.0)
MIX_POINTS_PER_S = 12.0      # points per parameter triple: seconds * this
MIX_TRIPLES = {"lift": LIFT, "gen": GEN}


class WhittakerMix(Workload):
    name = "whittaker-mix"

    def inputs(self, seed, seconds, cache_dir):
        # the centres of a k x k grid over the box, the same for every
        # seed: the seed only sets the order.  Seeded offsets, even of 0.1
        # cell widths, moved points across the routing boundary and along
        # the cost ramp of the series, and the median op by 20% between
        # seeds
        k = max(2, round(math.sqrt(seconds * MIX_POINTS_PER_S)))
        rng = np.random.default_rng([seed, 4])
        lo, hi = MIX_BOX
        cells = np.array([(i, j) for i in range(k) for j in range(k)], dtype=float)
        grid = lo + (hi - lo) * (cells + 0.5) / k
        per_triple = [grid[rng.permutation(len(grid))] for _ in ("lift", "gen")]
        points = []
        for lift_pt, gen_pt in zip(*per_triple):
            points.append(("lift", [float(v) for v in lift_pt]))
            points.append(("gen", [float(v) for v in gen_pt]))
        # a second pass at the mirrored points (y2, y1) doubles the timed
        # work without new references: W(y2, y1) = conj W(y1, y2), and the
        # dispatcher routes both the same way
        return [{"triple": t, "y": y[::-1] if mirror else y, "mirror": mirror}
                for mirror in (False, True) for t, y in points]

    def setup(self, seed, cache_dir):
        return MIX_TRIPLES

    def run(self, state, op):
        return lib.w_eval(state[op["triple"]], lib.WhittakerArgs(*op["y"]))

    def ref_jobs(self, ops, seed):
        # sorted, so that every seed's op order names the same results
        return [{"triple": t, "y": list(y)}
                for t, y in sorted({(op["triple"], tuple(op["y"])) for op in ops if not op["mirror"]})]

    def ref_run(self, job):
        """One or two references per point.  Integral-routed points: w_stade
        at half the step.  Series-routed points: w_stade, and the origin
        series when it converges, because the oscillation cancellation in
        the double-Bessel integral leaves w_stade with only ~6 digits at some
        small arguments of LIFT (e.g. (1.837, 0.090)), where the series and
        the origin series agree to 7 or more."""
        p = MIX_TRIPLES[job["triple"]]
        a = lib.WhittakerArgs(*job["y"])
        route, _ = lib.choose_algorithm(p, a)
        if route == "smallarg":
            found = [lib.w_stade(p, a)]
            try:
                found.append(lib.w_series_origin(p, a))
            except lib.NumericsError:
                pass
        else:
            found = [lib.w_stade(p, a, lib.default_stade_grid(p).halved())]
        return [[r.mantissa.real, r.mantissa.imag, r.log_scale] for r in found]

    def ref_assemble(self, ops, seed, results):
        # a mirrored point's reference is the conjugate
        found = {(job["triple"], tuple(job["y"])): res
                 for job, res in zip(self.ref_jobs(ops, seed), results)}
        refs = []
        for op in ops:
            y = tuple(op["y"][::-1] if op["mirror"] else op["y"])
            refs.append([[re, -im if op["mirror"] else im, ls] for re, im, ls in found[(op["triple"], y)]])
        return refs

    def check(self, ops, outcomes, refs):
        """Digits against the closest reference of the point."""
        dig = []
        for value, point_refs in zip(outcomes, refs):
            if value is None:
                dig.append(None)
                continue
            dig.append(max(digits(value.rel_diff(lib.ScaledComplex(complex(re, im), ls)))
                           for re, im, ls in point_refs))
        return dig, [None] * len(dig), {}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (LiftDemand(), FormOrbit(), WhittakerMix())}

