"""Spans and counters for the traced benchmark run.

Nothing under src/ changes.  While a Tracer is installed it replaces, in the
namespace of every loaded fsig module, the public layer functions with
wrappers that record a span (operation id, span id, parent span id, name,
start, end) and the fsig.exact kernels that other modules import by name
with wrappers that count calls and inclusive time.  lattice_points_in_box is
a generator; its wrapper counts the points it yields, attributed to the
innermost open layer span.  Uninstalling restores the original objects.

The element-wise vector helpers of fsig.exact (dot, vadd, vsub, vscale) are
not wrapped: they run per coordinate and a wrapper would dominate them.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

# Layer functions that get spans: (module, function) -> short span name.
LAYERS = {
    ("semigroup", "build_context"): "semigroup.build_context",
    ("semigroup", "check_normal"): "semigroup.check_normal",
    ("cone", "extreme_rays"): "cone.extreme_rays",
    ("cone", "full_embedding"): "cone.full_embedding",
    ("signature", "f_signature"): "signature.f_signature",
    ("signature", "signature_polytope"): "signature.polytope",
    ("signature", "polytope_volume"): "signature.volume",
    ("frobenius", "count_aq"): "frobenius.count_aq",
    ("frobenius", "brute_force_aq"): "frobenius.brute_aq",
    ("frobenius", "socle_witness"): "frobenius.socle",
    ("frobenius", "MonomialIdeal.minimal_generators"): "frobenius.min_gens",
    ("frobenius", "hk_colength"): "frobenius.colength",
    ("frobenius", "hk_difference_identity"): "frobenius.hk_identity",
}

# fsig.exact kernels counted by calls and inclusive time.
KERNELS = (
    "hermite_basis",
    "express_in_basis",
    "matrix_rank",
    "solve_linear_system",
    "rational_determinant",
    "solve_integer_combination",
    "lattice_points_in_box",
)


def _observe(span, result, counts):
    """Work counters read off a layer call's result."""
    if span == "semigroup.check_normal":
        counts["semigroup.normal"] += bool(result.normal)
    elif span == "cone.full_embedding":
        counts["cone.facets"] += result.num_coordinates
    elif span == "signature.polytope":
        counts["signature.vertices"] += len(result.vertices)
    elif span == "frobenius.count_aq":
        counts["frobenius.aq_points"] += result.a_q
    elif span == "frobenius.min_gens":
        counts["frobenius.min_gens"] += len(result)
    elif span == "frobenius.colength":
        counts["frobenius.colength_points"] += result


class Tracer:
    """In-memory spans and counters; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []  # (op_id, span_id, parent_id, name, start, end)
        self.busy = defaultdict(float)  # span or kernel name -> inclusive seconds
        self.calls = Counter()
        self.counts = Counter()
        self.box_points_by_layer = Counter()
        self.present = set()  # layer and kernel names found in this fsig
        self.op_id = None
        self._open = []  # stack of (span_id, name)
        self._next_id = 0
        self._patches = []

    # -------------------------------------------------------------- spans

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span; also used by the runner for the op root span."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else None
        self._open.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((self.op_id, span_id, parent, name, start, end))
            self.busy[name] += end - start
            self.calls[name] += 1

    def _layer_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            _observe(name, result, self.counts)
            return result

        return traced

    def _kernel_wrapper(self, name, fn):
        if inspect.isgeneratorfunction(fn):

            def traced_points(*args, **kwargs):
                self.calls[name] += 1
                layer = self._open[-1][1] if self._open else None
                yielded = 0
                try:
                    for point in fn(*args, **kwargs):
                        yielded += 1
                        yield point
                finally:
                    self.counts["exact.box_points"] += yielded
                    self.box_points_by_layer[layer] += yielded

            return traced_points

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.busy[name] += time.perf_counter() - start
                self.calls[name] += 1

        return traced

    # -------------------------------------------------------------- patching

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "fsig" or name.startswith("fsig."))
        }
        replacements = {}  # id(original) -> (original, wrapper)
        for (module, qualname), span in LAYERS.items():
            owner = modules.get(f"fsig.{module}")
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None) if owner else None
                original = getattr(cls, attr, None) if cls else None
                if original is not None:
                    self._patch(cls, attr, self._layer_wrapper(span, original))
                    self.present.add(span)
                continue
            original = getattr(owner, qualname, None) if owner else None
            if original is not None:
                replacements[id(original)] = (original, self._layer_wrapper(span, original))
                self.present.add(span)
        exact = modules.get("fsig.exact")
        for name in KERNELS:
            original = getattr(exact, name, None) if exact else None
            if original is not None:
                replacements[id(original)] = (original, self._kernel_wrapper(name, original))
                self.present.add(name)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -------------------------------------------------------------- results

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per corpus pass, as {name: (value, unit)}.

        A metric whose layer function or kernel does not exist in the traced
        fsig is left out; one that exists but did not run reads 0.
        """
        out = {}

        def per_pass(x):
            return x / passes

        def ratio(a, b):
            return a / b if b else 0.0

        def seconds(metric, span):
            if span in self.present:
                out[metric] = (per_pass(self.busy[span]), "s")

        def count(metric, key, requires):
            if requires in self.present:
                out[metric] = (per_pass(self.counts[key]), "count")

        seconds("semigroup.build_context_s", "semigroup.build_context")
        seconds("semigroup.check_normal_s", "semigroup.check_normal")
        if "semigroup.check_normal" in self.present:
            out["semigroup.normal_ratio"] = (
                ratio(self.counts["semigroup.normal"], self.calls["semigroup.check_normal"]),
                "ratio",
            )
        seconds("cone.extreme_rays_s", "cone.extreme_rays")
        if "cone.extreme_rays" in self.present:
            out["cone.extreme_rays_calls"] = (per_pass(self.calls["cone.extreme_rays"]), "count")
        seconds("cone.full_embedding_s", "cone.full_embedding")
        count("cone.facets", "cone.facets", "cone.full_embedding")
        seconds("signature.polytope_s", "signature.polytope")
        count("signature.vertices", "signature.vertices", "signature.polytope")
        seconds("signature.volume_s", "signature.volume")

        for name in KERNELS:
            if name not in self.present:
                continue
            out[f"exact.{name}_calls"] = (per_pass(self.calls[name]), "count")
            if name == "lattice_points_in_box":
                out["exact.box_points"] = (per_pass(self.counts["exact.box_points"]), "count")
            else:
                out[f"exact.{name}_s"] = (per_pass(self.busy[name]), "s")

        seconds("frobenius.count_aq_s", "frobenius.count_aq")
        count("frobenius.aq_points", "frobenius.aq_points", "frobenius.count_aq")
        if "frobenius.count_aq" in self.present:
            out["frobenius.aq_points_per_s"] = (
                ratio(self.counts["frobenius.aq_points"], self.busy["frobenius.count_aq"]),
                "1/s",
            )
        seconds("frobenius.brute_aq_s", "frobenius.brute_aq")
        seconds("frobenius.socle_s", "frobenius.socle")
        seconds("frobenius.min_gens_s", "frobenius.min_gens")
        count("frobenius.min_gens", "frobenius.min_gens", "frobenius.min_gens")
        if "frobenius.min_gens" in self.present and "lattice_points_in_box" in self.present:
            out["frobenius.min_gens_yield"] = (
                ratio(
                    self.counts["frobenius.min_gens"],
                    self.box_points_by_layer["frobenius.min_gens"],
                ),
                "ratio",
            )
        seconds("frobenius.colength_s", "frobenius.colength")
        count("frobenius.colength_points", "frobenius.colength_points", "frobenius.colength")
        if "frobenius.colength" in self.present:
            out["frobenius.colength_points_per_s"] = (
                ratio(self.counts["frobenius.colength_points"], self.busy["frobenius.colength"]),
                "1/s",
            )
        return out

    def spans_json(self) -> list:
        return [
            {"op": op, "id": sid, "parent": parent, "name": name, "start": start, "end": end}
            for op, sid, parent, name, start, end in self.spans
        ]
