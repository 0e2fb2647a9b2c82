"""Fold a cProfile run into the benchmark's layers.

Self time (pstats ``tottime``) is summed by the module of each function:

==============  ===============================================
layer           covers
==============  ===============================================
``sim``         ``repro.sim``, except the modules under ``rng``
``rng``         ``repro.sim.types``, ``repro.sim.envs``
``detectors``   ``repro.detectors``
``core``        ``repro.core``
``consensus``   ``repro.consensus``
``replication`` ``repro.replication``
``workload``    ``repro.workload``
``cht``         ``repro.cht``
``snapshot``    stdlib ``copy`` / ``copyreg``
``records``     code cProfile files under ``<string>``: the
                methods ``dataclasses`` generates
``other``       everything else
==============  ===============================================

C builtins (cProfile's ``~`` entries) have no module of their own: each
call edge's time is charged to the layer of the calling function. A
layer's ``calls_in`` counts the calls that cross into it from another
layer, read from the pstats caller graph.
"""

from __future__ import annotations

import copy
import copyreg
import os
from pathlib import PurePath

LAYERS = (
    "sim",
    "rng",
    "detectors",
    "core",
    "consensus",
    "replication",
    "workload",
    "cht",
    "snapshot",
    "records",
    "other",
)

#: First match wins, so the rng modules come before the rest of repro.sim.
_PREFIXES = (
    ("repro.sim.types", "rng"),
    ("repro.sim.envs", "rng"),
    ("repro.sim", "sim"),
    ("repro.detectors", "detectors"),
    ("repro.core", "core"),
    ("repro.consensus", "consensus"),
    ("repro.replication", "replication"),
    ("repro.workload", "workload"),
    ("repro.cht", "cht"),
)
_SNAPSHOT_FILES = frozenset(
    os.path.normcase(module.__file__) for module in (copy, copyreg)
)


def module_name(filename: str) -> str | None:
    """The dotted ``repro`` module a profiled file belongs to, else None."""
    parts = PurePath(filename).with_suffix("").parts
    if "repro" not in parts:
        return None
    start = len(parts) - 1 - parts[::-1].index("repro")
    names = list(parts[start:])
    if names[-1] == "__init__":
        names.pop()
    return ".".join(names)


def file_layer(filename: str) -> str | None:
    """The layer of a profiled file; None for C builtins (``~``)."""
    if filename == "~":
        return None
    if filename == "<string>":
        return "records"
    if os.path.normcase(filename) in _SNAPSHOT_FILES:
        return "snapshot"
    module = module_name(filename)
    if module is not None:
        for prefix, layer in _PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


def fold(stats: dict) -> dict[str, dict[str, float]]:
    """``{layer: {"self_s", "share", "calls_in"}}`` from ``pstats.Stats.stats``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``,
    and ``callers`` maps each calling function to ``(nc, cc, tt, ct)`` for
    that edge.
    """
    resolved: dict[tuple, str] = {}

    def caller_layer(key: tuple, seen: frozenset = frozenset()) -> str:
        """A function's layer; a builtin takes its busiest caller's layer."""
        if key in resolved:
            return resolved[key]
        layer = file_layer(key[0])
        if layer is None:
            callers = stats[key][4] if key in stats else {}
            busiest: dict[str, float] = {}
            for caller, edge in callers.items():
                if caller not in seen:
                    name = caller_layer(caller, seen | {key})
                    busiest[name] = busiest.get(name, 0.0) + edge[2]
            layer = max(busiest, key=busiest.get) if busiest else "other"
        resolved[key] = layer
        return layer

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    for key, (__, nc, tt, __, callers) in stats.items():
        layer = file_layer(key[0])
        if layer is None:
            if not callers:
                self_s["other"] += tt
            for caller, edge in callers.items():
                self_s[caller_layer(caller)] += edge[2]
            continue
        self_s[layer] += tt
        if not callers:
            calls_in[layer] += nc
        for caller, edge in callers.items():
            if caller_layer(caller) != layer:
                calls_in[layer] += edge[0]
    total = sum(self_s.values()) or 1.0
    return {
        layer: {
            "self_s": self_s[layer],
            "share": self_s[layer] / total,
            "calls_in": calls_in[layer],
        }
        for layer in LAYERS
    }


def call_count(stats: dict, module: str, name: str, *, primitive: bool = False) -> int:
    """Calls of one function, by module and name: all of them, or only the
    primitive ones (those not made while the function is already running)."""
    total = 0
    for (filename, __, func), (cc, nc, *__) in stats.items():
        if func != name:
            continue
        found = module_name(filename)
        if found is None and os.path.normcase(filename) in _SNAPSHOT_FILES:
            found = PurePath(filename).stem
        if found == module:
            total += cc if primitive else nc
    return total
