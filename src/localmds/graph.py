"""Immutable labeled graphs with distances, balls, and induced views.

A :class:`LabeledGraph` is a finite simple undirected graph over distinct
integer labels. Host graphs built by generators or read from edge-list
files are always labeled 0..n-1; induced subgraphs (and the ball views
derived from them) keep the labels of their host, because every tie-break
in this package is "smallest label" and must survive taking subgraphs.

All operations are pure functions over immutable graphs and are safe for
concurrent read-only use.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import InputError

VertexSet = frozenset[int]


class LabeledGraph:
    """Simple undirected graph over distinct integer vertex labels."""

    __slots__ = ("_adj", "_labels", "_m")

    def __init__(self, adjacency: Mapping[int, Iterable[int]]):
        adj: dict[int, frozenset[int]] = {}
        for v, nbrs in adjacency.items():
            if type(v) is not int:
                raise InputError(f"vertex labels must be ints, got {v!r}")
            adj[v] = frozenset(nbrs)
        for v, nbrs in adj.items():
            for w in nbrs:
                if type(w) is not int or w not in adj:
                    raise InputError(f"edge {v}-{w!r} leaves the vertex set")
                if w == v:
                    raise InputError(f"loop at vertex {v}")
                if v not in adj[w]:
                    raise InputError(f"adjacency not symmetric at {v}-{w}")
        self._adj = adj
        self._labels = tuple(sorted(adj))
        self._m = sum(len(nbrs) for nbrs in adj.values()) // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "LabeledGraph":
        """Build a canonical host graph on labels 0..n-1 from an edge list."""
        if type(n) is not int or n < 0:
            raise InputError(f"vertex count must be a non-negative int, got {n!r}")
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise InputError(f"edge endpoints must be ints, got {(u, v)!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {u}-{v} out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InputError(f"duplicate edge {key[0]}-{key[1]}")
            seen.add(key)
            adj[u].add(v)
            adj[v].add(u)
        return cls(adj)

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    @property
    def labels(self) -> tuple[int, ...]:
        """All vertex labels, ascending."""
        return self._labels

    def __contains__(self, v: object) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood N(v)."""
        try:
            return self._adj[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def closed_neighborhood(self, v: int) -> VertexSet:
        """Closed neighborhood N[v] = N(v) plus v itself."""
        return self.neighbors(v) | {v}

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, by ascending u; each u's neighbors
        come in set order, which depends on how the graph was built."""
        for v in self._labels:
            for w in self._adj[v]:
                if v < w:
                    yield (v, w)

    def induced(self, keep: Iterable[int]) -> "LabeledGraph":
        """Induced subgraph on `keep`; labels are preserved."""
        ks = frozenset(keep)
        for v in ks:
            if v not in self._adj:
                raise InputError(f"unknown vertex {v!r}")
        return LabeledGraph({v: self._adj[v] & ks for v in ks})

    def is_canonical(self) -> bool:
        """True when labels are exactly 0..n-1 (host-graph invariant)."""
        return self._labels == tuple(range(len(self._labels)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class BallView:
    """What a vertex sees after `radius` rounds: the induced subgraph on
    every vertex within that distance, annotated with distances from the
    center. Labels are those of the host graph."""

    center: int
    radius: int
    subgraph: LabeledGraph
    dist: Mapping[int, int]

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.subgraph.labels


def _bfs(g: LabeledGraph, sources: Iterable[int], radius: int | None = None) -> dict[int, int]:
    """Hop distance to the nearest source for every vertex within `radius`
    of `sources` (every reachable vertex when `radius` is None)."""
    dist = {}
    for v in sources:
        if v not in g:
            raise InputError(f"unknown vertex {v!r}")
        dist[v] = 0
    frontier = list(dist)
    d = 0
    while frontier and (radius is None or d < radius):
        d += 1
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def distances(g: LabeledGraph, source: int) -> dict[int, int]:
    """Hop distances from `source`; unreachable vertices are absent."""
    return _bfs(g, (source,))


def ball(g: LabeledGraph, center: int, radius: int) -> BallView:
    """The radius-`radius` ball around `center`, as an induced view."""
    if radius < 0:
        raise InputError(f"radius must be >= 0, got {radius}")
    dist = _bfs(g, (center,), radius)
    return BallView(center, radius, g.induced(dist), dist)


def neighborhood(g: LabeledGraph, seeds: Iterable[int], radius: int = 1) -> VertexSet:
    """Every vertex within distance `radius` of the seed set (seeds included)."""
    if radius < 0:
        raise InputError(f"radius must be >= 0, got {radius}")
    return frozenset(_bfs(g, seeds, radius))


def components(g: LabeledGraph, within: Iterable[int]) -> list[VertexSet]:
    """Partition `within` into maximal sets connected inside G[within].

    Returned in ascending order of smallest member.
    """
    h = g.induced(within)
    out: list[VertexSet] = []
    seen: set[int] = set()
    for v in h.labels:
        if v not in seen:
            comp = frozenset(_bfs(h, (v,)))
            seen |= comp
            out.append(comp)
    return out


def weak_diameter(g: LabeledGraph, s: Iterable[int]) -> int:
    """Maximum distance *in g* between any two vertices of `s`.

    The empty set and singletons have weak diameter 0. Raises InputError
    when `s` spans more than one connected component of g.
    """
    ss = frozenset(s)
    for v in ss:
        if v not in g:
            raise InputError(f"unknown vertex {v!r}")
    if len(ss) <= 1:
        return 0
    first, *rest = ss
    dist = distances(g, first)
    for w in ss:
        if w not in dist:
            raise InputError(f"vertices {first} and {w} lie in different components")
    best = max(dist[w] for w in ss)
    # every pair lies within 2 * best of each other, through `first`
    reach = 2 * best
    for v in rest:
        dist = _bfs(g, (v,), reach)
        best = max(best, max(dist[w] for w in ss))
    return best


def ranked_form(g: LabeledGraph) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Order-preserving compaction of a graph to labels 0..n-1.

    Returns (labels, edges) where labels[i] is the original label of rank i
    and edges are re-labeled by rank. Two graphs with equal ranked edges are
    isomorphic via a label-order-preserving map, so results of any
    computation that consults labels only through their relative order
    transfer between them.
    """
    labels = g.labels
    pos = {v: i for i, v in enumerate(labels)}
    edges = tuple(sorted((pos[u], pos[v]) for u, v in g.edges()))
    return labels, edges


# --- on-disk formats -------------------------------------------------------
#
# Edge-list text format (the canonical graph format of this package):
#   first non-comment line: "n m", then m lines "u v" with 0 <= u < v < n.
#   Blank lines and lines starting with '#' are ignored.
# Vertex-set text format: whitespace-separated labels, same comment rules.


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def read_edge_list(path: str | Path) -> LabeledGraph:
    """Parse the canonical edge-list format into a host graph."""
    lines = _data_lines(Path(path).read_text())
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise InputError(f"{path}: empty edge-list file") from None
    parts = header.split()
    if len(parts) != 2:
        raise InputError(f"{path}:{lineno}: expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"{path}:{lineno}: expected header 'n m', got {header!r}") from None
    edges = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected edge 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{path}:{lineno}: expected edge 'u v', got {line!r}") from None
        if not u < v:
            raise InputError(f"{path}:{lineno}: edges must satisfy u < v, got {u} {v}")
        edges.append((u, v))
    if len(edges) != m:
        raise InputError(f"{path}: header promises {m} edges, found {len(edges)}")
    try:
        return LabeledGraph.from_edges(n, edges)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_edge_list(g: LabeledGraph, path: str | Path) -> None:
    """Write a host graph in the canonical edge-list format."""
    if not g.is_canonical():
        raise InputError("edge-list format requires labels 0..n-1")
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    Path(path).write_text("\n".join(lines) + "\n")


def read_vertex_set(path: str | Path) -> VertexSet:
    """Parse a whitespace-separated vertex-set file."""
    out = []
    for lineno, line in _data_lines(Path(path).read_text()):
        for tok in line.split():
            try:
                out.append(int(tok))
            except ValueError:
                raise InputError(f"{path}:{lineno}: expected a vertex label, got {tok!r}") from None
    return frozenset(out)


def write_vertex_set(s: Iterable[int], path: str | Path) -> None:
    labels = sorted(s)
    Path(path).write_text(" ".join(str(v) for v in labels) + "\n" if labels else "\n")
