"""Per-layer measurements: the traced round, the computed key window and the micro-probe.

Layers are the package's modules.  Spans are installed from outside by
patching module attributes (for module-level entry points the callers look
up at call time) and instance attributes (for handle methods), and removed
again afterwards; nothing under src/ changes.
"""

from __future__ import annotations

import random
import statistics
import time

from tracing import Tracer
from workloads import FAMILY_SPECS, TRACE3_MATRICES, torus_bundle

NAMED_BOUNDS = (
    "surface_bound",
    "free_product_bound",
    "amalgam_bound",
    "hnn_bound",
    "bcg_bound",
    "solvable_bound",
    "make_bcg_table",
)
CAYLEY_SPANS = ("cayley.growth_table", "cayley.is_generating", "cayley.ball_elements", "cayley.search")
BFS_SPANS = CAYLEY_SPANS[:3]

# family id -> radius of the ball whose outermost sphere the probe samples
PROBE_RADIUS = {
    "heisenberg": 12,
    "torus_bundle": 7,
    "free_abelian3": 12,
    "surface2": 4,
    "z2_z3": 14,
    "free2": 6,
    "z_x_surface2": 3,
}
PROBE_SAMPLE = 256
PROBE_REPEATS = 5
PROBE_SEED = 20080731  # fixed: every run probes the same elements
SURFACE_FAMILIES = ("surface2", "z_x_surface2")


class LayerTrace:
    """A tracer installed on the package, plus the counts spans alone do not give."""

    def __init__(self, gg):
        self.gg = gg
        self.tracer = Tracer()
        self.products_in_tables = 0
        self.elements_added = 0
        self.scan_visited = 0
        self.scan_rows = 0
        self.tables = []  # (handle, gens, kmax) of every growth_table call

    def instrument(self, handle) -> None:
        t = self.tracer
        t.patch(handle, "mul", t.wrap("groups.mul", handle.mul, product=True))
        t.patch(handle, "inv", t.wrap("groups.inv", handle.inv))
        t.patch(handle, "canonical_key", t.wrap("cayley.key", handle.canonical_key))

    def install(self, handles=()) -> None:
        gg, t = self.gg, self.tracer
        cayley, cli, groups, bounds, manifold = gg.cayley, gg.cli, gg.groups, gg.bounds, gg.manifold
        for handle in handles:
            self.instrument(handle)

        table_span = t.wrap("cayley.growth_table", cayley.growth_table, bfs=True)

        def growth_table(handle, gens, kmax, *args, **kwargs):
            before = t.calls("groups.mul")
            table = table_span(handle, gens, kmax, *args, **kwargs)
            if t.enabled:
                self.products_in_tables += t.calls("groups.mul") - before
                self.elements_added += table.gamma[-1] - 1
                self.tables.append((handle, gens, table.kmax))
            return table

        scan_span = t.wrap("bounds.scan", cli.scan_hyperbolic)

        def scan_hyperbolic(entry_bound):
            report = scan_span(entry_bound)
            if t.enabled:
                self.scan_visited += (2 * entry_bound + 1) ** 4
                self.scan_rows += len(report.rows)
            return report

        make_group_span = t.wrap("groups.make_group", cli.make_group)

        def make_group(*args, **kwargs):
            handle = make_group_span(*args, **kwargs)
            if t.enabled:
                self.instrument(handle)
            return handle

        osin = t.wrap("bounds.osin", bounds.osin_bound)
        lam = t.wrap("bounds.lambda_max", bounds.lambda_max)
        for owner in (cayley, cli):
            t.patch(owner, "growth_table", growth_table)
        t.patch(cayley, "is_generating", t.wrap("cayley.is_generating", cayley.is_generating, bfs=True))
        t.patch(cayley, "ball_elements", t.wrap("cayley.ball_elements", cayley.ball_elements, bfs=True))
        t.patch(cli, "search_generating_sets", t.wrap("cayley.search", cli.search_generating_sets))
        t.patch(cli, "estimate_rates", t.wrap("rates.estimate", cli.estimate_rates))
        t.patch(cli, "root_bounds", t.wrap("rates.root_bounds", cli.root_bounds))
        t.patch(cli, "scan_hyperbolic", scan_hyperbolic)
        t.patch(cli, "make_group", make_group)
        t.patch(cli, "classify_growth", t.wrap("manifold.classify", cli.classify_growth))
        t.patch(cli, "group_of_manifold", t.wrap("manifold.group_of", cli.group_of_manifold))
        t.patch(cli, "universal_constant", t.wrap("manifold.universal", cli.universal_constant))
        for owner in (cli, bounds, manifold):
            t.patch(owner, "osin_bound", osin)
        for owner in (bounds, manifold):
            t.patch(owner, "lambda_max", lam)
        for owner in (cli, manifold):
            for name in NAMED_BOUNDS:
                if hasattr(owner, name):
                    t.patch(owner, name, t.wrap("bounds.named", getattr(owner, name)))
        t.patch(groups, "dehn_reduce", t.wrap("surface.dehn", groups.dehn_reduce))
        t.patch(groups, "surface_canonical", t.wrap("surface.canonical", groups.surface_canonical))
        t.patch(groups, "free_reduce", t.wrap("words.free_reduce", groups.free_reduce))
        t.patch(cli, "main", t.wrap("cli.main", cli.main))

    def remove(self) -> None:
        self.tracer.enabled = False
        self.tracer.restore()

    def metrics(self) -> dict:
        t = self.tracer
        return {
            "groups.mul_calls": t.calls("groups.mul"),
            "groups.mul_s": t.total_s("groups.mul"),
            "cayley.key_calls": t.calls("cayley.key"),
            "cayley.key_s": t.total_s("cayley.key"),
            "cayley.self_s": t.self_s(*CAYLEY_SPANS),
            "cayley.new_per_product": self.elements_added / self.products_in_tables
            if self.products_in_tables
            else 0.0,
            "cayley.key_bytes": max((window_key_bytes(*args) for args in self.tables), default=0),
            "cayley.bfs_calls": sum(t.calls(n) for n in BFS_SPANS),
            "cayley.bfs_setup_s": t.bfs_setup_ns / 1e9,
            "surface.dehn_calls": t.calls("surface.dehn"),
            "surface.dehn_s": t.total_s("surface.dehn"),
            "surface.canonical_calls": t.calls("surface.canonical"),
            "surface.canonical_s": t.total_s("surface.canonical"),
            "words.free_reduce_calls": t.calls("words.free_reduce"),
            "words.free_reduce_s": t.total_s("words.free_reduce"),
            "rates.estimate_calls": t.calls("rates.estimate"),
            "rates.estimate_s": t.total_s("rates.estimate"),
            "bounds.scan_s": t.total_s("bounds.scan"),
            "bounds.scan_visited": self.scan_visited,
            "bounds.scan_rows": self.scan_rows,
            "bounds.scan_useful_ratio": self.scan_rows / self.scan_visited if self.scan_visited else 0.0,
            "bounds.lambda_max_calls": t.calls("bounds.lambda_max"),
            "bounds.osin_calls": t.calls("bounds.osin"),
            "manifold.classify_s": t.total_s("manifold.classify"),
            "cli.self_s": t.self_s("cli.main"),
        }


def spheres(handle, gens, kmax):
    """Spheres 0..kmax as sets of payloads (payloads are canonical, so == is group equality)."""
    prev, cur = set(), {handle.identity}
    yield cur
    for _ in range(kmax):
        nxt = set()
        for el in cur:
            for s in gens.elements:
                p = handle.mul(el, s)
                if p not in cur and p not in prev:
                    nxt.add(p)
        yield nxt
        prev, cur = cur, nxt


def window_key_bytes(handle, gens, kmax) -> int:
    """Largest byte total of the keys of two consecutive spheres, the window BFS keeps."""
    best, last = 0, 0
    for sphere in spheres(handle, gens, kmax):
        size = sum(len(handle.canonical_key(el)) for el in sphere)
        best = max(best, last + size)
        last = size
    return best


def _per_call_ns(fn, items) -> float:
    runs = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter_ns()
        for item in items:
            fn(*item)
        runs.append((time.perf_counter_ns() - t0) / len(items))
    return statistics.median(runs)


def micro_probe(gg) -> dict:
    """mul, key and surface canonicalization cost per call on a fixed sample per family.

    The sample is drawn from the outermost sphere of a small ball, so its
    elements are as long as the ones BFS handles there.
    """
    out = {}
    closures = []
    for family, radius in PROBE_RADIUS.items():
        spec = torus_bundle(TRACE3_MATRICES[0]) if family == "torus_bundle" else FAMILY_SPECS[family]
        handle = gg.groups.make_group(gg.groups.GroupSpec.from_dict(spec))
        gens = handle.default_generators()
        *_, outer = spheres(handle, gens, radius)
        outer = sorted(outer, key=handle.canonical_key)
        sample = random.Random(PROBE_SEED).sample(outer, min(PROBE_SAMPLE, len(outer)))
        pairs = [(el, s) for el in sample for s in gens.elements]
        out[f"groups.mul_ns.{family}"] = _per_call_ns(handle.mul, pairs)
        products = [(handle.mul(el, s),) for el, s in pairs]
        out[f"cayley.key_ns.{family}"] = _per_call_ns(handle.canonical_key, products)
        if family in SURFACE_FAMILIES:
            # canonicalize the raw products mul would canonicalize
            if family == "surface2":
                relator, raw = handle.relator, [el + s for el, s in pairs]
            else:
                relator, raw = handle.inner.relator, [el[1] + s[1] for el, s in pairs]
            reduced = [(gg.surface.dehn_reduce(w, relator), relator) for w in raw]
            out[f"surface.canonical_ns.{family}"] = _per_call_ns(gg.surface.surface_canonical, reduced)
            closures += [len(gg.surface.geodesic_closure(w, relator)) for w, _ in reduced]
    out["surface.closure_words_max"] = max(closures)
    out["surface.closure_words_mean"] = statistics.fmean(closures)
    return out
