"""Per-layer spans for the traced run.

Library modules import their helpers by name (``repro.core.scs`` holds its
own ``abcore``), so a layer function is wrapped at every ``repro`` module
that holds it, not only where it is defined. Wrapping happens only in the
traced run; the untraced run calls the library unchanged.

Each layer has a span name ``<module>.<function>`` and the counters listed
in ``LAYERS``. Row and byte counts run under ``Tracer.aux`` so they cost
the layer neither jobs nor time. A layer that a workload does not run
reports zeros. Counts are totals over the recorded spans (one set-up, the
timed requests and, once, the workload's ``inputs``); ``p50_s`` is the
median span, ``scan_ratio`` the rows handed to the layer's peel and BFS
over the rows it returned.

``build_ibs_alpha``/``beta``, ``q_bicore`` (Q_v) and ``q_online`` (Q_o)
have no span: no workload calls them.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys

from spans import Tracer

# span name -> (defining module, function, counters)
_PEEL = ("calls", "wall_s", "self_s", "jobs", "checkpoints", "rows_in", "rows_out")
_FIX = ("calls", "wall_s", "self_s", "jobs", "checkpoints", "rows_in")
_BUILD = ("wall_s", "self_s", "jobs", "rows_out")
_IO = ("wall_s", "jobs", "bytes")
_QUERY = ("calls", "wall_s", "self_s", "jobs", "p50_s", "rows_in", "rows_out",
          "scan_ratio")
_SCS = ("calls", "wall_s", "self_s", "jobs", "p50_s", "weights", "probes",
        "feasible_probes", "components", "rows_in", "rows_out")
_SETUP = ("wall_s", "jobs")

LAYERS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "graph.peel.abcore": ("repro.graph.peel", "abcore", _PEEL),
    "graph.components.component_of": (
        "repro.graph.components", "component_of", _PEEL),
    "graph.decomposition.coreness": (
        "repro.graph.decomposition", "coreness", _FIX),
    "graph.decomposition.alpha_offsets": (
        "repro.graph.decomposition", "alpha_offsets", _FIX),
    "graph.decomposition.beta_offsets": (
        "repro.graph.decomposition", "beta_offsets", _FIX),
    "core.index_delta.build_idelta": (
        "repro.core.index_delta", "build_idelta", _BUILD),
    "core.index_bicore.build_iv": (
        "repro.core.index_bicore", "build_iv", _BUILD),
    "core.index_bs.save_index": ("repro.core.index_bs", "save_index", _IO),
    "core.index_bs.load_index": ("repro.core.index_bs", "load_index", _IO),
    "core.query.q_opt": ("repro.core.query", "q_opt", _QUERY),
    "core.scs.scs_peel": ("repro.core.scs", "scs_peel", _SCS),
    "core.scs.scs_expand": ("repro.core.scs", "scs_expand", _SCS),
    "graph.schema.checkpoint": (
        "repro.graph.schema", "checkpoint", ("calls", "wall_s", "jobs")),
    "setup.datasets.load": ("repro.datasets", "load", _SETUP),
    "setup.weights.rwr_weights": ("repro.weights.rwr", "rwr_weights", _SETUP),
    "setup.table3.weighted_variants": (
        "repro.experiments.table3", "weighted_variants", _SETUP),
}

# Feasibility test after each SCS threshold probe; counted, not reported.
_PROBE = ("core.scs.has_vertex", "repro.core.scs", "has_vertex")

_HANDED = ("graph.peel.abcore", "graph.components.component_of")


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"bytes": "B", "scan_ratio": "ratio"}.get(name.rsplit(".", 1)[1], "count")


TRACED = ("setup_s", "op1_p50_s", "op2_p50_s", "op3_p50_s")


def metric_names() -> list[str]:
    """Every per-layer metric, in ``BENCHMARK.json`` order."""
    return [f"{layer}.{c}" for layer, (_, _, cs) in LAYERS.items()
            for c in cs] + [f"traced.{name}" for name in TRACED]


def _wrap(tracer: Tracer, name: str, fn, counters: tuple[str, ...]):
    rows_in = "rows_in" in counters
    rows_out = "rows_out" in counters
    nbytes = "bytes" in counters
    weights = "weights" in counters

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = {}
        if rows_in or weights:
            with tracer.aux():
                if rows_in:
                    attrs["rows_in"] = args[0].count()
                if weights:
                    attrs["weights"] = args[0].select("w").distinct().count()
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
        if rows_out or nbytes:
            with tracer.aux():
                if rows_out:
                    attrs["rows_out"] = out.count()
                if nbytes:
                    path = args[1]
                    attrs["bytes"] = importlib.import_module(
                        "repro.core.index_bs").index_disk_bytes(path)
        sp.attrs.update(attrs)
        if name in _HANDED:
            tracer.credit("handed", attrs.get("rows_in", 0))
        return out

    return traced


def _wrap_probe(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(_PROBE[0]) as sp:
            ok = fn(*args, **kwargs)
            if ok:
                sp.below["feasible"] += 1
        return ok

    return traced


def _rebind(orig, wrapped, prefix: str = "repro") -> None:
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith(prefix):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every layer function at every ``repro`` module that holds it."""
    for name, (mod, fn, counters) in LAYERS.items():
        orig = getattr(importlib.import_module(mod), fn)
        _rebind(orig, _wrap(tracer, name, orig, counters))
    name, mod, fn = _PROBE
    orig = getattr(importlib.import_module(mod), fn)
    _rebind(orig, _wrap_probe(tracer, orig), prefix=mod)


def aggregate(spans) -> dict[str, float]:
    """Per-layer counters over all recorded spans (zero where a layer did
    not run in this workload)."""
    by_name: dict[str, list] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    out: dict[str, float] = {}
    for layer, (_, _, counters) in LAYERS.items():
        ss = by_name.get(layer, [])
        walls = [s.wall_s for s in ss]
        rows_out = sum(s.attrs.get("rows_out", 0) for s in ss)
        handed = sum(s.below.get("handed", 0) for s in ss)
        vals = {
            "calls": len(ss),
            "wall_s": sum(walls),
            "self_s": sum(s.self_s for s in ss),
            "jobs": sum(s.jobs for s in ss),
            "checkpoints": sum(s.below.get("graph.schema.checkpoint", 0) for s in ss),
            "rows_in": sum(s.attrs.get("rows_in", 0) for s in ss),
            "rows_out": rows_out,
            "p50_s": statistics.median(walls) if walls else 0.0,
            "scan_ratio": handed / rows_out if rows_out else 0.0,
            "bytes": sum(s.attrs.get("bytes", 0) for s in ss),
            "weights": sum(s.attrs.get("weights", 0) for s in ss),
            "probes": sum(s.below.get(_PROBE[0], 0) for s in ss),
            "feasible_probes": sum(s.below.get("feasible", 0) for s in ss),
            "components": sum(
                s.below.get("graph.components.component_of", 0) for s in ss),
        }
        for c in counters:
            out[f"{layer}.{c}"] = vals[c]
    return out
