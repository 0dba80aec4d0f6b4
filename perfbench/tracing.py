"""Spans around calls into rgpoly's public functions, for the traced run.

``Tracer.install`` replaces each function listed in ``TRACED`` by a wrapper
everywhere the package binds it (module globals such as ``verify``'s own
``relative_tutte`` included), so calls the library makes to its own public
functions get spans too; ``remove`` restores the originals.  No file under
``src/`` changes, and an untraced pass runs the original functions.

A span is (name, start, end, parent span, instance id, sizes); spans stay in
memory and are written out as JSON lines when the run ends.  A layer's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict


def _terms(text: str) -> int:
    return 0 if text == "0" else 1 + text.count(" + ") + text.count(" - ")


# span name -> (module, attribute, sizes recorded from (args, result))
TRACED = {
    "formats.parse_ribbon": ("rgpoly.formats", "parse_ribbon", None),
    "formats.parse_vld": ("rgpoly.formats", "parse_vld", None),
    "ribbon.bollobas_riordan": (
        "rgpoly.ribbon", "bollobas_riordan",
        lambda a, r: {"m": a[0].num_edges}),
    "convert.ribbon_to_plane": (
        "rgpoly.convert", "ribbon_to_plane",
        lambda a, r: {"edges_out": r[0].map.num_edges}),
    "convert.link_to_tait": (
        "rgpoly.convert", "link_to_tait",
        lambda a, r: {"edges_out": r.map.num_edges}),
    "planemap.relative_tutte": (
        "rgpoly.planemap", "relative_tutte",
        lambda a, r: {"regular": len(a[0].regular_indices()),
                      "edges": a[0].map.num_edges}),
    "planemap.dual": ("rgpoly.planemap", "dual", None),
    "links.kauffman_bracket": (
        "rgpoly.links", "kauffman_bracket",
        lambda a, r: {"classical": len(a[0].classical),
                      "crossings": a[0].map.num_vertices}),
    "links.jones": ("rgpoly.links", "jones", None),
    "poly.canonical": (
        "rgpoly.poly", "Polynomial.canonical", lambda a, r: {"terms": _terms(r)}),
    "poly.subs": ("rgpoly.poly", "Polynomial.subs", None),
    "verify.generate_ribbon": ("rgpoly.verify", "generate_ribbon", None),
    "verify.generate_rpg": ("rgpoly.verify", "generate_rpg", None),
    "verify.generate_link": ("rgpoly.verify", "generate_link", None),
    "verify.check_main_theorem": ("rgpoly.verify", "check_main_theorem", None),
    "verify.check_subset_identities": (
        "rgpoly.verify", "check_subset_identities", None),
    "verify.check_duality": ("rgpoly.verify", "check_duality", None),
    "verify.check_bracket": ("rgpoly.verify", "check_bracket", None),
}

# per-layer metric -> unit; every one is reported, 0 where a layer is unused
LAYER_UNITS = {
    "formats.parse_s": "s",
    "ribbon.bollobas_riordan_s": "s",
    "ribbon.states": "count",
    "ribbon.us_per_state.m12": "us",
    "ribbon.us_per_state.m14": "us",
    "poly.canonical_s": "s",
    "poly.output_terms": "count",
    "poly.subs_s": "s",
    "planemap.relative_tutte_s": "s",
    "planemap.states": "count",
    "planemap.darts": "count",
    "planemap.us_per_state": "us",
    "planemap.dual_s": "s",
    "links.kauffman_bracket_s": "s",
    "links.jones_s": "s",
    "links.states": "count",
    "links.darts": "count",
    "links.virtual_crossings": "count",
    "convert.ribbon_to_plane_s": "s",
    "convert.link_to_tait_s": "s",
    "convert.darts_out": "count",
    "verify.generate_s": "s",
    "verify.check_main_theorem_s": "s",
    "verify.check_subset_identities_s": "s",
    "verify.check_duality_s": "s",
    "verify.check_bracket_s": "s",
    "verify.instances": "count",
    "verify.failed": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_frac": "frac",
}


def _self_time_metric(name: str) -> str:
    if name.startswith("formats.parse_"):
        return "formats.parse_s"
    if name.startswith("verify.generate_"):
        return "verify.generate_s"
    return name + "_s"


def self_times(spans: list, first: int = 0) -> list[float]:
    """Duration minus child spans' durations, for spans numbered from ``first``."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None and s[3] >= first:
            covered[s[3] - first] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


class Tracer:
    """Records one span per call into a traced function while installed."""

    def __init__(self, clock):
        self.clock = clock              # () -> seconds; spans' start and end
        # [name, start, end, parent index, instance id, sizes]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.instance = None

    def _wrap(self, name: str, fn, sizes):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None,
                      self.instance, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if sizes is not None:
                record[5] = sizes(args, result)
            return result
        return traced

    def install(self) -> None:
        for name, (module_name, attr, sizes) in TRACED.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, sizes))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, sizes)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "rgpoly" and not mod_name.startswith("rgpoly."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def remove(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def layer_metrics(self, first: int = 0) -> dict:
        """Per-layer self times and counts over ``spans[first:]``."""
        spans = self.spans[first:]
        out = dict.fromkeys(LAYER_UNITS, 0)
        by_m = defaultdict(lambda: [0.0, 0])
        for s, self_s in zip(spans, self_times(spans, first)):
            name, sizes = s[0], s[5]
            out[_self_time_metric(name)] += self_s
            if sizes is None:       # no sizes recorded, or the call raised
                continue
            if name == "ribbon.bollobas_riordan":
                out["ribbon.states"] += 2 ** sizes["m"]
                by_m[sizes["m"]][0] += self_s
                by_m[sizes["m"]][1] += 2 ** sizes["m"]
            elif name == "planemap.relative_tutte":
                out["planemap.states"] += 2 ** sizes["regular"]
                out["planemap.darts"] += 2 * sizes["edges"]
            elif name == "links.kauffman_bracket":
                out["links.states"] += 2 ** sizes["classical"]
                out["links.darts"] += 4 * sizes["crossings"]
                out["links.virtual_crossings"] += (sizes["crossings"]
                                                   - sizes["classical"])
            elif name.startswith("convert."):
                out["convert.darts_out"] += 2 * sizes["edges_out"]
            elif name == "poly.canonical":
                out["poly.output_terms"] += sizes["terms"]
        for m in (12, 14):
            self_s, states = by_m[m]
            if states:
                out[f"ribbon.us_per_state.m{m}"] = self_s / states * 1e6
        if out["planemap.states"]:
            out["planemap.us_per_state"] = (out["planemap.relative_tutte_s"]
                                            / out["planemap.states"] * 1e6)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, instance, sizes) in enumerate(
                    self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "instance": instance, "sizes": sizes}))
                fh.write("\n")

