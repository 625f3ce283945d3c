"""The benchmark's workloads, each a harness suite built from a workload seed.

A suite has the shape `localmds measure` reads: graph specs, algorithm
configs and `oracle_max_n`. Cells run graph-major, every algorithm on one
graph before the next graph, as `localmds.harness.experiment` runs them.

Why these workloads (measured shares are in expected.json, "profile"):

* a-planar: algorithm A alone on planar hosts. No cell calls the planarity
  predicate, so a planarity change must leave it flat. The grid has few
  distinct ranked views (the nomination cache absorbs it), the depth-2 tree
  makes every view the whole tree (graph-layer extraction), and the
  triangulations are bound by the best-set search; the larger ones hit the
  10^6-node search ceiling on some seeds and end `resource`.
* b-nearplanar: algorithm B with its default configuration on hosts with
  and without local non-planarity: detection, error components and exact
  repair. The grid is error-free and predicate-bound, the grafts give many
  small repair components, the 7x7 torus is repaired whole, the projective
  circulant is globally non-planar yet error-free, and the 8x8 torus is the
  repair solver's ceiling (it ends `resource`).
* corpus-small: the acceptance corpus's graphs with n <= 100, A and B on
  each: many small cells, per-cell harness overhead and the exact oracle.
  Views repeat across cells, and B's sub-run of A repeats A's cell.

The workload seed draws the n=100 triangulations and the path grafts'
offsets, whose costs vary little from instance to instance (0.17-0.71 s
for A on n=100 triangulations over 16 seeds). The larger triangulations
are fixed at seeds 1-3 and the one with deletions at seed 1: A's best-set
search cost on them is heavy-tailed (0.58-5.4 s at n=140 over 16 seeds),
so a dozen seed-drawn instances would spread wall_s by about 25% from seed
to seed. Seeds 1 of n=140 and n=160 hit the search ceiling.
The grid graft keeps the acceptance corpus's instance: its cost swings
about 100x with the column its gadget hangs from.
"""
from __future__ import annotations

import random

A = {"alg": "A"}
B = {"alg": "B", "control_fn": "linear:1", "k": 4, "alpha": 302, "dim": 2}
ORACLE_MAX_N = 25


def _spec(family: str, params: dict, seed: int = 0) -> dict:
    return {"family": family, "params": params, "seed": seed}


def _draw(rng: random.Random) -> int:
    return rng.randrange(2**31)


def a_planar(seed: int) -> dict:
    rng = random.Random(seed)
    graphs = [
        _spec("grid", {"rows": 40, "cols": 40}),
        _spec("depth2Tree", {"alpha": 8}),
        _spec("path", {"n": 2000}),
    ]
    graphs += [_spec("randomPlanarTriangulation", {"n": 100}, _draw(rng)) for _ in range(3)]
    for n in (120, 140, 160):
        graphs += [_spec("randomPlanarTriangulation", {"n": n}, s) for s in (1, 2, 3)]
    graphs.append(_spec("randomPlanarTriangulation", {"n": 100, "deletions": 60}, 1))
    return {"oracle_max_n": ORACLE_MAX_N, "graphs": graphs, "algorithms": [A]}


def b_nearplanar(seed: int) -> dict:
    rng = random.Random(seed)
    graphs = [
        _spec("grid", {"rows": 14, "cols": 14}),
        _spec(
            "gadgetGraft",
            {"n": 2000, "gadgets": 10, "gadget": "projectiveCirculant", "spacing": 150},
            _draw(rng),
        ),
        _spec("gadgetGraft", {"n": 1200, "gadgets": 6, "gadget": "K5", "spacing": 150}, _draw(rng)),
        _spec("gadgetGraft", {"host": "grid", "rows": 3, "cols": 40, "gadgets": 1, "spacing": 1}, 10),
        _spec("toroidalGrid", {"rows": 7, "cols": 7}),
        _spec("projectiveCirculant", {"g": 60}),
        _spec("toroidalGrid", {"rows": 8, "cols": 8}),
    ]
    return {"oracle_max_n": ORACLE_MAX_N, "graphs": graphs, "algorithms": [B]}


def corpus_small(seed: int) -> dict:
    """The acceptance corpus restricted to n <= 100; fixed, so `seed` is unused."""
    graphs = [_spec("path", {"n": n}) for n in (1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 20, 30, 40, 60, 80)]
    graphs += [
        _spec("cycle", {"n": n})
        for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 18, 22, 25, 30, 40, 60, 80)
    ]
    grids = (
        (1, 1), (1, 7), (2, 2), (2, 3), (2, 5), (2, 8), (3, 3), (3, 4), (3, 5),
        (4, 4), (4, 6), (4, 9), (5, 5), (5, 8), (6, 6), (7, 9), (8, 12), (10, 10),
    )
    graphs += [_spec("grid", {"rows": r, "cols": c}) for r, c in grids]
    tori = ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6))
    graphs += [_spec("toroidalGrid", {"rows": r, "cols": c}) for r, c in tori]
    for n in (4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 25, 28, 32, 36, 40, 45, 50, 60, 70, 80):
        graphs += [_spec("randomPlanarTriangulation", {"n": n}, s) for s in (1, 2, 3, 4)]
    for n, deletions in ((10, 5), (15, 8), (20, 12), (25, 15), (30, 20), (40, 28), (50, 35), (60, 45)):
        graphs += [
            _spec("randomPlanarTriangulation", {"n": n, "deletions": deletions}, s) for s in (1, 2)
        ]
    graphs += [_spec("projectiveCirculant", {"g": g}) for g in (1, 2, 3, 4, 5, 6, 8, 10)]
    graphs += [_spec("depth2Tree", {"alpha": a}) for a in (2, 3)]
    graphs += [
        _spec("gadgetGraft", {"n": 60, "gadgets": 1, "spacing": 10}, 1),
        _spec("gadgetGraft", {"n": 60, "gadgets": 1, "gadget": "projectiveCirculant", "spacing": 10}, 2),
        _spec("gadgetGraft", {"n": 80, "gadgets": 2, "spacing": 40}, 3),
        _spec("gadgetGraft", {"n": 70, "gadgets": 2, "spacing": 20}, 9),
    ]
    return {"oracle_max_n": ORACLE_MAX_N, "graphs": graphs, "algorithms": [A, B]}


WORKLOADS = {"a-planar": a_planar, "b-nearplanar": b_nearplanar, "corpus-small": corpus_small}
