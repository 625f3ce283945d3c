"""Deterministic graph generators with known structural guarantees.

Every family is a pure function of its parameters and seed. Families that
promise planarity are verified with the planarity tester before being
returned; a failure there is a generator bug, not bad input.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from .errors import InputError, InvariantError, require_int
from .graph import LabeledGraph
from .planarity import is_planar

_PLANAR_FAMILIES = frozenset(
    {"path", "cycle", "grid", "randomPlanarTriangulation", "depth2Tree"}
)


@dataclass(frozen=True)
class GeneratorSpec:
    """One graph to generate: family name, parameters, seed."""

    family: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    @property
    def genus_upper_bound(self) -> int | None:
        """Euler-genus upper bound guaranteed by construction, if known.

        Planar families are 0. The antipodal circulants embed in the
        projective plane for every parameter value, hence 1. Toroidal grids
        embed on the torus, hence 2. Grafted graphs add one per gadget
        (each gadget is a block of genus at most 1, and genus adds up over
        blocks).
        """
        if self.family in _PLANAR_FAMILIES:
            return 0
        if self.family == "projectiveCirculant":
            return 1
        if self.family == "toroidalGrid":
            return 2
        if self.family == "gadgetGraft":
            return _int_param(self.params, "gadgets", 1, default=1)
        return None


def _int_param(params: Mapping[str, object], key: str, minimum: int, default=None) -> int:
    if key not in params:
        if default is not None:
            return default
        raise InputError(f"missing parameter {key!r}")
    return require_int(params[key], f"parameter {key!r}", minimum)


def _path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _gen_path(params, rng) -> LabeledGraph:
    n = _int_param(params, "n", 1)
    return LabeledGraph.from_edges(n, _path_edges(n))


def _gen_cycle(params, rng) -> LabeledGraph:
    n = _int_param(params, "n", 3)
    return LabeledGraph.from_edges(n, _path_edges(n) + [(0, n - 1)])


def _grid_edges(rows: int, cols: int, wrap: bool) -> list[tuple[int, int]]:
    def lab(i, j):
        return i * cols + j

    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((lab(i, j), lab(i, j + 1)))
            elif wrap:
                edges.append((lab(i, 0), lab(i, cols - 1)))
            if i + 1 < rows:
                edges.append((lab(i, j), lab(i + 1, j)))
            elif wrap:
                edges.append((lab(0, j), lab(rows - 1, j)))
    return edges


def _gen_grid(params, rng) -> LabeledGraph:
    rows = _int_param(params, "rows", 1)
    cols = _int_param(params, "cols", 1)
    return LabeledGraph.from_edges(rows * cols, _grid_edges(rows, cols, wrap=False))


def _gen_toroidal(params, rng) -> LabeledGraph:
    rows = _int_param(params, "rows", 3)
    cols = _int_param(params, "cols", 3)
    return LabeledGraph.from_edges(rows * cols, _grid_edges(rows, cols, wrap=True))


def _gen_triangulation(params, rng) -> LabeledGraph:
    """Stacked triangulation: repeatedly split a uniformly chosen face by a
    new vertex, optionally followed by random edge deletions (which may
    disconnect the graph but keep it planar)."""
    n = _int_param(params, "n", 3)
    deletions = _int_param(params, "deletions", 0, default=0)
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        idx = rng.randrange(len(faces))
        a, b, c = faces[idx]
        faces[idx] = (a, b, v)
        faces.append((a, c, v))
        faces.append((b, c, v))
        edges.update({(a, v), (b, v), (c, v)})
    if deletions:
        if deletions > len(edges):
            raise InputError(f"cannot delete {deletions} of {len(edges)} edges")
        for e in rng.sample(sorted(edges), deletions):
            edges.remove(e)
    return LabeledGraph.from_edges(n, sorted(edges))


def _gen_projective_circulant(params, rng) -> LabeledGraph:
    """A cycle on 2g+6 vertices with every antipodal pair joined."""
    g = _int_param(params, "g", 1)
    n = 2 * g + 6
    half = n // 2
    edges = _path_edges(n) + [(0, n - 1)] + [(i, i + half) for i in range(half)]
    return LabeledGraph.from_edges(n, edges)


def _gen_depth2_tree(params, rng) -> LabeledGraph:
    """Root with alpha+1 children, each carrying alpha^2+3 leaves."""
    alpha = _int_param(params, "alpha", 1)
    mid = alpha + 1
    leaves_each = alpha * alpha + 3
    edges = [(0, i) for i in range(1, mid + 1)]
    nxt = mid + 1
    for i in range(1, mid + 1):
        for _ in range(leaves_each):
            edges.append((i, nxt))
            nxt += 1
    return LabeledGraph.from_edges(nxt, edges)


def _gadget_edges(kind: str, base: int) -> tuple[list[tuple[int, int]], int]:
    if kind == "K5":
        size = 5
        edges = [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
    elif kind == "projectiveCirculant":
        size = 8
        edges = [(base + i, base + (i + 1) % size) for i in range(size)]
        edges += [(base + i, base + i + 4) for i in range(4)]
        edges = [(min(u, v), max(u, v)) for u, v in edges]
    else:
        raise InputError(f"unknown gadget kind {kind!r}")
    return edges, size


def _gen_gadget_graft(params, rng) -> LabeledGraph:
    """A planar host with small non-planar gadgets hung off it by one edge,
    attachment points pairwise at least `spacing` apart."""
    host = str(params.get("host", "path"))
    gadgets = _int_param(params, "gadgets", 1, default=1)
    spacing = _int_param(params, "spacing", 1, default=30)
    kind = str(params.get("gadget", "K5"))
    if host == "path":
        host_n = line = _int_param(params, "n", 1)
        host_edges = _path_edges(host_n)
    else:  # grid, the only other host in _GRAFT_HOSTS
        rows = _int_param(params, "rows", 1)
        line = _int_param(params, "cols", 1)  # gadgets hang off row 0, whose labels are its columns
        host_n = rows * line
        host_edges = _grid_edges(rows, line, wrap=False)
    span = (gadgets - 1) * spacing
    if span >= line:
        raise InputError(
            f"{gadgets} gadgets spaced {spacing} need more than {span} attachment points on the {host}, got {line}"
        )
    offset = rng.randrange(line - span)
    points = [offset + i * spacing for i in range(gadgets)]
    edges = list(host_edges)
    base = host_n
    for p in points:
        gadget_edges, size = _gadget_edges(kind, base)
        edges.extend(gadget_edges)
        edges.append((p, base))
        base += size
    return LabeledGraph.from_edges(base, edges)


# each family's generator and the parameters it reads; a gadgetGraft also reads its host's sizes
_GENERATORS = {
    "path": (_gen_path, ("n",)),
    "cycle": (_gen_cycle, ("n",)),
    "grid": (_gen_grid, ("rows", "cols")),
    "toroidalGrid": (_gen_toroidal, ("rows", "cols")),
    "randomPlanarTriangulation": (_gen_triangulation, ("n", "deletions")),
    "projectiveCirculant": (_gen_projective_circulant, ("g",)),
    "depth2Tree": (_gen_depth2_tree, ("alpha",)),
    "gadgetGraft": (_gen_gadget_graft, ("host", "gadgets", "spacing", "gadget")),
}
_GRAFT_HOSTS = {"path": ("n",), "grid": ("rows", "cols")}
FAMILIES = tuple(_GENERATORS)


def generate(spec: GeneratorSpec) -> LabeledGraph:
    """Generate the graph a spec describes, deterministic given the seed; unread parameters are InputErrors."""
    if spec.family not in _GENERATORS:
        raise InputError(f"unknown family {spec.family!r}; known: {', '.join(FAMILIES)}")
    make, keys = _GENERATORS[spec.family]
    if spec.family == "gadgetGraft":
        host = str(spec.params.get("host", "path"))
        if host not in _GRAFT_HOSTS:
            raise InputError(f"unknown gadget host {host!r}")
        keys += _GRAFT_HOSTS[host]
    for key in spec.params:
        if key not in keys:
            raise InputError(f"{spec.family} takes no parameter {key!r} (it takes: {list(keys)})")
    rng = random.Random(require_int(spec.seed, "seed"))
    g = make(spec.params, rng)
    if spec.family in _PLANAR_FAMILIES and not is_planar(g):
        raise InvariantError(f"{spec.family} generator produced a non-planar graph")
    return g
