"""Immutable labeled graphs with distances, balls, and induced views.

A :class:`LabeledGraph` is a finite simple undirected graph over distinct
integer labels. Host graphs built by generators or read from edge-list
files are always labeled 0..n-1; induced subgraphs (and the ball views
derived from them) keep the labels of their host, because every tie-break
in this package is "smallest label" and must survive taking subgraphs.

All operations are pure functions over immutable graphs and are safe for
concurrent read-only use. A graph computes its ranked form on first use
and keeps it; two threads that race on it compute the same value.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import InputError, require_int

VertexSet = frozenset[int]


class LabeledGraph:
    """Simple undirected graph over distinct integer vertex labels."""

    __slots__ = ("_adj", "_labels", "_m", "_form")

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
        self._fill(adj)

    @classmethod
    def _valid(cls, adj: dict[int, frozenset[int]]) -> "LabeledGraph":
        """A graph on `adj`, which the caller built valid: int labels, symmetric, loop-free."""
        g = cls.__new__(cls)
        g._fill(adj)
        return g

    def _fill(self, adj: dict[int, frozenset[int]]) -> None:
        self._adj = adj
        self._labels = tuple(sorted(adj))
        self._m = sum(len(nbrs) for nbrs in adj.values()) // 2
        self._form = None  # ranked_form(self), built on first use

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> "LabeledGraph":
        """Build a canonical host graph on labels 0..n-1 from an edge list."""
        require_int(n, "vertex count", 0)
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise InputError(f"edge endpoints must be ints, got {(u, v)!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge {u}-{v} out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if v in adj[u]:
                raise InputError(f"duplicate edge {min(u, v)}-{max(u, v)}")
            adj[u].add(v)
            adj[v].add(u)
        return cls._valid({v: frozenset(nbrs) for v, nbrs in adj.items()})

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
        ks = vertex_set(self, keep, "vertex set")
        return LabeledGraph._valid({v: self._adj[v] & ks for v in ks})

    def is_canonical(self) -> bool:
        """True when labels are exactly 0..n-1 (host-graph invariant)."""
        return self._labels == tuple(range(len(self._labels)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True, eq=False)
class BallView:
    """What a vertex sees after `radius` rounds: every vertex within that
    distance of `center`, with its distance, and the edges among them.
    Labels are those of the host graph.

    A rule sees only the ball. The host graph is a private field, read only
    restricted to the ball: by `subgraph`, built on first use, and by
    `ranked_form(view)`, which builds no graph, so a rule that needs only
    the ranked form never pays for the subgraph. A ball that covers its
    host is the host: its subgraph is the host itself, and its ranked form
    the host's, computed once per host.
    """

    center: int
    radius: int
    dist: Mapping[int, int]
    _host: LabeledGraph = field(repr=False)

    @cached_property
    def subgraph(self) -> LabeledGraph:
        """The subgraph of the host induced on the ball: the host itself when the ball covers it."""
        return self._host if self.covers_host else self._host.induced(self.dist)

    @property
    def covers_host(self) -> bool:
        return len(self.dist) == self._host.n

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._host.labels if self.covers_host else tuple(sorted(self.dist))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BallView):
            return NotImplemented
        mine, theirs = (self.center, self.radius, self.dist), (other.center, other.radius, other.dist)
        return mine == theirs and self.subgraph == other.subgraph


def vertex_set(g: LabeledGraph | BallView, s: Iterable[int], name: str) -> VertexSet:
    """`s` as a frozenset, if every member is a vertex of g (or of view g's ball); else InputError naming `name`.

    The one membership check for a vertex set a caller hands in. A member
    must be an int: True equals the label 1 but is not a vertex.
    """
    try:
        out = frozenset(s)
    except TypeError:
        raise InputError(f"{name} must be a collection of vertices, got {s!r}") from None
    keys = g.dist.keys() if isinstance(g, BallView) else g._adj.keys()
    if not (keys >= out and {int}.issuperset(map(type, out))):
        stray = next(v for v in out if type(v) is not int or v not in keys)
        raise InputError(f"{name} contains {stray!r}, which is not a vertex")
    return out


def _bfs(
    g: LabeledGraph, sources: Iterable[int], radius: int | None = None, until: VertexSet = frozenset()
) -> dict[int, int]:
    """Hop distance to the nearest source for every vertex within `radius`
    of `sources` (every reachable vertex when `radius` is None). A non-empty
    `until` stops the search after the level that reaches its last member."""
    dist = {v: 0 for v in vertex_set(g, sources, "sources")}
    left = len(until.difference(dist)) if until else -1
    frontier = list(dist)
    d = 0
    while frontier and left and (radius is None or d < radius):
        d += 1
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
        if until:
            left -= len(until.intersection(nxt))
    return dist


def distances(g: LabeledGraph, source: int) -> dict[int, int]:
    """Hop distances from `source`; unreachable vertices are absent."""
    return _bfs(g, (source,))


def ball(g: LabeledGraph, center: int, radius: int) -> BallView:
    """The radius-`radius` ball around `center`, as an induced view."""
    dist = _bfs(g, (center,), require_int(radius, "radius", 0))
    return BallView(center, radius, dist, g)


def neighborhood(g: LabeledGraph, seeds: Iterable[int], radius: int = 1) -> VertexSet:
    """Every vertex within distance `radius` of the seed set (seeds included)."""
    return frozenset(_bfs(g, seeds, require_int(radius, "radius", 0)))


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
    ss = vertex_set(g, s, "vertex set")
    best = 0
    for v in ss:
        dist = _bfs(g, (v,), until=ss)
        for w in ss:
            if w not in dist:
                raise InputError(f"vertices {v} and {w} lie in different components")
            best = max(best, dist[w])
    return best


def ranked_form(g: LabeledGraph | BallView) -> tuple[tuple[int, ...], bytes]:
    """Order-preserving compaction of a graph to labels 0..n-1.

    Returns (labels, code) where labels[i] is the original label of rank i
    and code packs the edges, re-labeled by rank: each edge (i, j) with
    i < j as the number i * n + j, ascending, by `pack(n, ...)`, so O(m)
    bytes. Two graphs with equal n and code are isomorphic via a
    label-order-preserving map, so results of any computation that
    consults labels only through their relative order transfer between
    them. A ball view's form is that of its subgraph, read off the host
    restricted to the ball without building the subgraph: with n, the one
    key under which every memo stores a view's result. A graph computes
    its form once and keeps it, and a view that covers its host returns
    the host's form.
    """
    if isinstance(g, BallView) and not g.covers_host:
        return _ranked(g._host, g.vertices)
    host = g._host if isinstance(g, BallView) else g
    if host._form is None:
        host._form = _ranked(host, host.labels)
    return host._form


def _ranked(host: LabeledGraph, labels: tuple[int, ...]) -> tuple[tuple[int, ...], bytes]:
    n = len(labels)
    pos = {v: i for i, v in enumerate(labels)}
    codes = [i * n + pos[w] for i, v in enumerate(labels) for w in host.neighbors(v) if v < w and w in pos]
    codes.sort()
    return labels, pack(n, codes)


_ITEMS = sorted((array(t).itemsize, t) for t in "BHILQ")  # (bytes, typecode), narrowest first


def pack(n: int, values: Iterable[int]) -> bytes:
    """`values`, each in 0..n*n-1, as the bytes of an array of the narrowest
    unsigned item that holds n*n-1; a larger value raises OverflowError."""
    top = n * n - 1
    for size, typecode in _ITEMS:  # past the widest item, `array` raises
        if top < 1 << 8 * size:
            break
    return array(typecode, values).tobytes()


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
