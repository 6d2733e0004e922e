"""Spans around the benchmark's calls into each layer, and the per-layer
metrics derived from them.

A span is kept in memory as (layer, kind, seconds, counts) and summarised
when the pass ends. Spans never nest: the benchmark spans only its own
direct calls, and whatever a call runs inside the library is charged to the
called layer.
"""

from __future__ import annotations

import time

LAYERS = ("groups", "quadratic", "arrangement", "rep", "tensor", "krammer")
REP_KINDS = ("build", "integrability", "equivariance", "spectrum")
TENSOR_KINDS = ("algebra", "ds_table", "square", "psu")

# Per-layer metric: (unit, better). The order is the order of the report.
PER_LAYER = {
    "groups.busy_s": ("s", "lower"),
    "groups.calls": ("count", "lower"),
    "groups.reflections": ("count", "lower"),
    "groups.conj_entries": ("count", "lower"),
    "groups.max_call_s": ("s", "lower"),
    "quadratic.busy_s": ("s", "lower"),
    "quadratic.calls": ("count", "lower"),
    "quadratic.class_dim_sum": ("count", "lower"),
    "quadratic.max_call_s": ("s", "lower"),
    "arrangement.busy_s": ("s", "lower"),
    "arrangement.calls": ("count", "lower"),
    "arrangement.flats": ("count", "lower"),
    "arrangement.root_pairs": ("count", "lower"),
    "rep.busy_s": ("s", "lower"),
    "rep.build_s": ("s", "lower"),
    "rep.integrability_s": ("s", "lower"),
    "rep.equivariance_s": ("s", "lower"),
    "rep.spectrum_s": ("s", "lower"),
    "rep.other_s": ("s", "lower"),
    "rep.calls": ("count", "lower"),
    "rep.commutator_pairs": ("count", "lower"),
    "rep.all_m_proofs": ("count", "higher"),
    "rep.sampled_proofs": ("count", "lower"),
    "tensor.busy_s": ("s", "lower"),
    "tensor.algebra_s": ("s", "lower"),
    "tensor.algebra_calls": ("count", "lower"),
    "tensor.algebra_full": ("count", "higher"),
    "tensor.algebra_below_full": ("count", "lower"),
    "tensor.certified_ratio": ("ratio", "higher"),
    "tensor.ds_table_s": ("s", "lower"),
    "tensor.square_s": ("s", "lower"),
    "tensor.psu_s": ("s", "lower"),
    "tensor.psu_calls": ("count", "lower"),
    "krammer.busy_s": ("s", "lower"),
    "krammer.calls": ("count", "lower"),
    "krammer.dim_sum": ("count", "lower"),
    "unattributed_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Span:
    __slots__ = ("layer", "kind", "seconds", "counts", "_start")

    def __init__(self, layer: str, kind: str) -> None:
        self.layer = layer
        self.kind = kind
        self.seconds = 0.0
        self.counts: dict[str, int] = {}

    def __enter__(self) -> Span:
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start

    def count(self, **counts: int) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []

    def span(self, layer: str, kind: str) -> Span:
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        span = Span(layer, kind)
        self.spans.append(span)
        return span


class _NullSpan:
    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc) -> None:
        pass

    def count(self, **counts: int) -> None:
        pass


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    _span = _NullSpan()

    def span(self, layer: str, kind: str) -> _NullSpan:
        return self._span


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, without `trace.overhead_frac`."""
    out: dict[str, float] = {}
    counts: dict[str, int] = {}
    busy_total = 0.0
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        busy = sum(s.seconds for s in mine)
        busy_total += busy
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.calls"] = len(mine)
        if layer in ("groups", "quadratic"):
            out[f"{layer}.max_call_s"] = max((s.seconds for s in mine), default=0.0)
        for s in mine:
            for key, value in s.counts.items():
                name = f"{layer}.{key}"
                counts[name] = counts.get(name, 0) + value

    def kind_seconds(layer: str, kind: str) -> float:
        return sum(s.seconds for s in spans if s.layer == layer and s.kind == kind)

    for kind in REP_KINDS:
        out[f"rep.{kind}_s"] = kind_seconds("rep", kind)
    out["rep.other_s"] = sum(
        s.seconds for s in spans if s.layer == "rep" and s.kind not in REP_KINDS
    )
    for kind in TENSOR_KINDS:
        out[f"tensor.{kind}_s"] = kind_seconds("tensor", kind)
    out["tensor.algebra_calls"] = sum(
        1 for s in spans if s.layer == "tensor" and s.kind == "algebra"
    )
    out["tensor.psu_calls"] = sum(1 for s in spans if s.layer == "tensor" and s.kind == "psu")
    for name, (unit, _) in PER_LAYER.items():
        if unit == "count" and name not in out:
            out[name] = counts.get(name, 0)
    calls = out["tensor.algebra_calls"]
    out["tensor.certified_ratio"] = out["tensor.algebra_full"] / calls if calls else 0.0
    out["unattributed_s"] = wall_s - busy_total
    return out
