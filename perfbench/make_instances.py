"""Record the instance pools and the br-wide reference digests.

Usage: python3 perfbench/make_instances.py

Writes perfbench/instances.json.  The pools hold generator seeds, scanned
upwards from 0, whose instance falls in narrow size bands: the vertex count
for br-wide; for ribbon-plane the edges, and the vertices plus edges, of the
plane graph from ``ribbon_to_plane``; for link-tait the classical plus
virtual crossings, and the vertices plus edges of the Tait graph.  The
bands keep the cost of a pass steady across benchmark seeds.  The pools are
recorded once, so a later change to the router or the converter cannot
change which inputs the benchmark runs.  The br-wide digests
are order-independent digests of the canonical B_R text of every pooled
graph, computed by the code of the commit this script runs on.
"""

from __future__ import annotations

import json
import sys

from checkout import use_checkout_src

use_checkout_src()

from rgpoly import convert, links, ribbon, verify  # noqa: E402

from workloads import INSTANCES_FILE, gauss_code, term_digest  # noqa: E402

# (size, pool length, {recorded size: inclusive band})
BR_WIDE = {"small": (12, 64, {"vertices": (6, 6)}),
           "large": (14, 32, {"vertices": (7, 7)})}
RIBBON_PLANE = {"small": (9, 64, {"plane_edges": (103, 107),
                                  "plane_size": (158, 162)}),
                "large": (10, 32, {"plane_edges": (142, 148),
                                   "plane_size": (216, 222)})}
LINK_TAIT = {"small": (9, 64, {"crossings": (98, 102), "tait_size": (148, 152)}),
             "large": (10, 32, {"crossings": (159, 165), "tait_size": (237, 243)})}


def ribbon_sizes(seed: int, m: int) -> dict:
    return {"vertices": verify.generate("ribbon", seed, m).num_vertices}


def plane_sizes(seed: int, m: int) -> dict:
    """Edges and vertices plus edges of the plane graph relative_tutte walks."""
    G, _ = convert.ribbon_to_plane(verify.generate("ribbon", seed, m))
    return {"plane_edges": G.map.num_edges,
            "plane_size": G.map.num_vertices + G.map.num_edges}


def link_sizes(seed: int, n: int) -> dict:
    """All crossings, and vertices plus edges of the Tait graph."""
    L = links.realize_gauss_code(gauss_code(seed, n))
    if L.map.num_vertices != verify.generate("link", seed, n).map.num_vertices:
        raise SystemExit(f"gauss_code({seed}, {n}) drifted from generate_link")
    G = convert.link_to_tait(L)
    return {"crossings": L.map.num_vertices,
            "tait_size": G.map.num_vertices + G.map.num_edges}


def banded_pool(measure, size: int, length: int, bands: dict) -> list:
    """The first ``length`` generator seeds whose sizes all lie in their bands."""
    pool = []
    seed = 0
    while len(pool) < length:
        sizes = measure(seed, size)
        if all(lo <= sizes[k] <= hi for k, (lo, hi) in bands.items()):
            pool.append({"seed": seed, "size": size, **sizes})
        seed += 1
    return pool


def main() -> int:
    out = {"br-wide": {"digests": {}}, "ribbon-plane": {}, "link-tait": {}}
    for which, (size, length, bands) in RIBBON_PLANE.items():
        out["ribbon-plane"][which] = banded_pool(plane_sizes, size, length, bands)
    for which, (size, length, bands) in LINK_TAIT.items():
        out["link-tait"][which] = banded_pool(link_sizes, size, length, bands)
    for which, (size, length, bands) in BR_WIDE.items():
        pool = banded_pool(ribbon_sizes, size, length, bands)
        out["br-wide"][which] = pool
        for p in pool:
            R = verify.generate("ribbon", p["seed"], size)
            out["br-wide"]["digests"][f"ribbon:{p['seed']}:{size}"] = term_digest(
                ribbon.bollobas_riordan(R).canonical())
            print(f"br-wide ribbon:{p['seed']}:{size}", file=sys.stderr, flush=True)
    with open(INSTANCES_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
