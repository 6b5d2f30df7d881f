"""Outside-in tracing of the `hsf` package for the benchmark's traced run.

`Tracer.install()` replaces each traced function in every `hsf` module
namespace that binds it (so `hsf.ltf.truth_table` and `hsf.cli.truth_table`
both record), and `uninstall()` puts the originals back.  Spans are kept in
memory with the id of the span that was open when they started; a span's self
time is its duration minus the durations of its children.  Counts that later
claims may rest on are recorded next to the spans, from the arguments and
results of the traced calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass

# (module, function) pairs traced, by the name the package binds them under.
TRACED = [
    ("cli", "main"),
    ("_bits", "popcounts"),
    ("fncore", "wht"),
    ("fncore", "distance"),
    ("ltf", "truth_table"),
    ("ltf", "linear_form_table"),
    ("ltf", "critical_index"),
    ("ltf", "linear_form"),
    ("noise", "ns_exact"),
    ("noise", "degree_weights"),
    ("noise", "boolean_pair_quadrant_mc"),
    ("noise", "gaussian_ns_mc"),
    ("noise", "bivariate_rectangle"),
    ("noise", "regular_cdf_gap"),
    ("restriction", "bias_profile"),
    ("restriction", "embed_junta"),
    ("restriction", "restrict"),
    ("restriction", "restriction_energy_identity"),
    ("restriction", "ns_aggregation_check"),
    ("junta", "extract_junta"),
    ("junta", "_extract_from_table"),
    ("junta", "head_projection"),
    ("junta", "best_junta_on"),
    ("junta", "theorem_verify"),
]
MODULES = ("_bits", "fncore", "ltf", "noise", "restriction", "junta", "cli")
_MC = ("noise.boolean_pair_quadrant_mc", "noise.gaussian_ns_mc")


@dataclass
class Span:
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0


class _Identity:
    """Recognizes an object seen before without keeping it alive."""

    def __init__(self):
        self._refs: dict[int, weakref.ref] = {}
        self.distinct = 0

    def first_time(self, obj) -> bool:
        ref = self._refs.get(id(obj))
        if ref is not None and ref() is obj:
            return False
        self._refs[id(obj)] = weakref.ref(obj)
        self.distinct += 1
        return True


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._arities: set[int] = set()
        self._spectra = _Identity()
        self._tables = _Identity()
        self._heads: dict[int, set[int]] = {}
        self._distinct_heads = 0

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        on_return = getattr(self, "_on_" + name.split(".")[1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, 0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    on_return(bound.arguments, result)
                except (KeyError, AttributeError):  # a parameter or field was renamed
                    self.absent.add(f"{name} (counts)")
            return result

        return traced

    def _on_popcounts(self, a, result):
        self._arities.add(int(a["n"]))

    def _on_wht(self, a, result):
        self.counts["wht.butterflies"] += result.arity << result.arity

    def _on_linear_form_table(self, a, result):
        self.counts["linear_form_table.terms"] += result.size * a["ltf"].n_active

    def _on_degree_weights(self, a, result):
        self._spectra.first_time(a["spectrum"])

    def _on_bias_profile(self, a, result):
        table, head = a["f"], int(a["head"])
        if self._tables.first_time(table):
            self._heads[id(table)] = set()
        heads = self._heads[id(table)]
        if head not in heads:
            heads.add(head)
            self._distinct_heads += 1

    def _on_gaussian_ns_mc(self, a, result):
        self.counts["mc.samples"] += int(a["samples"])

    _on_boolean_pair_quadrant_mc = _on_gaussian_ns_mc

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in each `hsf` namespace that binds it."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "hsf" or name.startswith("hsf.")]
        for module_name, fn_name in TRACED:
            home = sys.modules.get("hsf." + module_name)
            original = getattr(home, fn_name, None)
            if original is None:
                self.absent.add(f"{module_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, value))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for span, children in zip(self.spans, child_ns):
            entry = out[span.name]
            duration = span.end_ns - span.start_ns
            entry["calls"] += 1
            entry["ms"] += duration / 1e6
            entry["self_ms"] += (duration - children) / 1e6
        return out

    def root_ms(self) -> float:
        return sum(s.end_ns - s.start_ns for s in self.spans if s.parent is None) / 1e6

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        by_name = self.summary()  # a name never called reads as zero

        def get(name, field="ms"):
            return by_name[name][field]

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {}
        for module in MODULES:
            m[f"{module}.self_ms"] = sum(v["self_ms"] for k, v in by_name.items()
                                         if k.split(".")[0] == module)
        for module_name, fn_name in TRACED:
            name = f"{module_name}.{fn_name}"
            m[f"{name}.ms"] = get(name)
            m[f"{name}.calls"] = get(name, "calls")
        m["_bits.popcounts.calls_per_arity"] = ratio(
            get("_bits.popcounts", "calls"), len(self._arities))
        m["fncore.wht.ns_per_butterfly"] = ratio(
            get("fncore.wht") * 1e6, self.counts["wht.butterflies"])
        # Each of the n passes reads and writes the float64 array once.
        m["fncore.wht.bytes_computed"] = 16 * self.counts["wht.butterflies"]
        m["ltf.linear_form_table.ns_per_term"] = ratio(
            get("ltf.linear_form_table") * 1e6, self.counts["linear_form_table.terms"])
        m["noise.degree_weights.calls_per_spectrum"] = ratio(
            get("noise.degree_weights", "calls"), self._spectra.distinct)
        m["restriction.bias_profile.calls_per_head"] = ratio(
            get("restriction.bias_profile", "calls"), self._distinct_heads)
        m["noise.mc.samples"] = self.counts["mc.samples"]
        m["noise.mc.samples_per_s"] = ratio(
            self.counts["mc.samples"] * 1e3, sum(get(name) for name in _MC))
        return m
