"""Finite planar maps as rotation systems.

A map is stored on *darts* (oriented edges).  Darts come in pairs: dart ``e``
and its reversal ``e ^ 1`` are the two orientations of one edge.  The
rotation system is stored once, in compressed-sparse-row (CSR) form:
``rotation`` lists every dart grouped by origin vertex, each group
counterclockwise from that vertex's first dart, and vertex ``v``'s group is
``rotation[offsets[v]:offsets[v + 1]]``.  In the permutation form of Lando &
Zvonkin (*Graphs on Surfaces and Their Applications*, 2004, ch. 1) the groups
are the cycles of sigma (``nxt``, the next dart counterclockwise), alpha is
``e -> e ^ 1``, and the faces are the cycles of ``e -> nxt[e ^ 1]``; they lie
to the left of their darts.  One pointer-doubling routine, ``_cycles``, lists
the faces in the same CSR layout, which is also the rotation system of the
dual.  Conductances are positive, symmetric edge weights (default 1).
Instances should be treated as immutable once constructed.
"""

from __future__ import annotations

import json
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components, dijkstra
from scipy.sparse.linalg import splu

from .errors import InvariantViolation, integer, integers
from .linalg import PinnedSolve
from .textio import read_text

__all__ = [
    "PlanarMap",
    "FaceStructure",
    "DartTree",
    "CornerPattern",
    "Truncation",
    "build_map",
    "trace_faces",
    "dual_map",
    "is_polyhedral",
    "euler_characteristic",
    "truncate",
    "boundary_truncation",
    "induce_submap",
    "load_map_json",
    "map_to_json",
]


class PlanarMap:
    """Rotation-system encoding of a finite connected planar map.

    Parameters
    ----------
    rotation:
        Integer array listing every dart once, grouped by origin vertex:
        the darts leaving ``v`` are ``rotation[offsets[v]:offsets[v + 1]]``,
        counterclockwise from ``v``'s first dart.  Dart ``e`` reverses to
        ``e ^ 1``, so darts ``2i`` and ``2i + 1`` form edge ``i``.
    offsets:
        Integer array of ``n_vertices + 1`` group boundaries, rising from 0
        to the dart count; every vertex has at least one dart.
    conductance:
        Positive weight per dart, equal on the two darts of an edge.

    ``origin``, ``nxt`` (the next dart counterclockwise around the origin),
    ``prv``, ``degrees`` and ``neighbor_lists`` are derived from the CSR.
    """

    def __init__(self, rotation, offsets, conductance=None):
        self.rotation = integers("rotation", rotation)
        self.offsets = integers("offsets", offsets)
        m = self.rotation.size
        if conductance is None:
            self.conductance = np.ones(m)
        else:
            self.conductance = np.asarray(conductance, dtype=float)
        if m % 2 or self.conductance.size != m:
            raise ValueError("dart arrays must have equal, even length")
        if m == 0:
            raise ValueError("empty map")
        if not np.array_equal(np.sort(self.rotation), np.arange(m)):
            raise ValueError("nxt is not a permutation of the darts")
        self.degrees = np.diff(self.offsets)
        if self.offsets.size < 2 or self.offsets[0] != 0 or self.offsets[-1] != m \
                or np.any(self.degrees < 0):
            raise ValueError("offsets must rise from 0 to the dart count")
        if np.any(self.degrees == 0):
            v = int(np.argmin(self.degrees))
            raise ValueError(f"vertex {v} has no darts (map must be connected)")
        self.n_vertices = self.degrees.size
        self.origin = np.empty(m, dtype=np.int64)
        self.origin[self.rotation] = np.repeat(np.arange(self.n_vertices), self.degrees)
        # position of the next dart in the rotation, wrapping within each group
        after = np.arange(1, m + 1)
        after[self.offsets[1:] - 1] = self.offsets[:-1]
        self.nxt = np.empty(m, dtype=np.int64)
        self.nxt[self.rotation] = self.rotation[after]
        if np.any(self.conductance <= 0) or not np.all(np.isfinite(self.conductance)):
            raise ValueError("non-positive conductance")
        if np.any(self.conductance[0::2] != self.conductance[1::2]):
            raise ValueError("conductance differs between the two darts of an edge")
        if connected_components(self.adjacency, return_labels=False) > 1:
            raise ValueError("map is not connected")

    # -- basic structure ---------------------------------------------------

    @property
    def n_darts(self) -> int:
        return self.origin.size

    @property
    def n_edges(self) -> int:
        return self.origin.size // 2

    @cached_property
    def target(self) -> np.ndarray:
        """Terminal vertex of each dart."""
        return self.origin[np.arange(self.n_darts) ^ 1]

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Vertex adjacency matrix (parallel darts summed), for csgraph."""
        return sp.csr_matrix((np.ones(self.n_darts), (self.origin, self.target)),
                             shape=(self.n_vertices, self.n_vertices))

    def vertex_darts(self, v: int) -> np.ndarray:
        """Darts leaving ``v`` in counterclockwise rotation order."""
        return self.rotation[self.offsets[v]:self.offsets[v + 1]]

    def neighbors(self, v: int) -> np.ndarray:
        return self.target[self.vertex_darts(v)]

    @cached_property
    def prv(self) -> np.ndarray:
        """Inverse of ``nxt`` (previous dart clockwise around the origin)."""
        p = np.empty_like(self.nxt)
        p[self.nxt] = np.arange(self.n_darts)
        return p

    @cached_property
    def neighbor_lists(self) -> list[np.ndarray]:
        return np.split(self.target[self.rotation], self.offsets[1:-1])

    def simple_defect(self) -> str | None:
        """"a loop" or "a doubled edge" when the map is not simple, else None."""
        if np.any(self.origin == self.target):
            return "a loop"
        u, v = self.origin[::2], self.target[::2]
        key = np.sort(np.minimum(u, v) * self.n_vertices + np.maximum(u, v))
        if np.any(key[1:] == key[:-1]):
            return "a doubled edge"
        return None

    # -- conveniences ------------------------------------------------------

    @cached_property
    def vertex_conductance(self) -> np.ndarray:
        """Total conductance c(v) incident to each vertex."""
        out = np.zeros(self.n_vertices)
        np.add.at(out, self.origin, self.conductance)
        return out

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """Weighted graph Laplacian: c(v) on the diagonal, -c(e) per dart."""
        n = self.n_vertices
        off = sp.coo_matrix((-self.conductance, (self.origin, self.target)), shape=(n, n))
        idx = np.arange(n)
        diag = sp.coo_matrix((self.vertex_conductance, (idx, idx)), shape=(n, n))
        return (off + diag).tocsr()

    @cached_property
    def walk_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Step tables of the conductance walk: per vertex, padded to the
        largest degree, the targets of its darts in rotation order and the
        cumulative step probabilities, the last one set to exactly 1 (padding
        is target 0, probability 1).  The vertices of one degree are summed
        as one block, so each row total is numpy's pairwise sum over that row
        alone, bit for bit."""
        width = int(self.degrees.max())
        nbr = np.zeros((self.n_vertices, width), dtype=np.int64)
        cum = np.ones((self.n_vertices, width))
        for d in np.unique(self.degrees):
            vs = np.flatnonzero(self.degrees == d)
            darts = self.rotation[self.offsets[vs, None] + np.arange(d)]
            c = self.conductance[darts]
            p = np.cumsum(c, axis=1) / c.sum(axis=1, keepdims=True)
            p[:, -1] = 1.0
            nbr[vs, :d] = self.target[darts]
            cum[vs, :d] = p
        return nbr, cum

    def __repr__(self):
        return f"PlanarMap(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def _bfs_distances(pmap: PlanarMap, sources) -> np.ndarray:
    """Graph distance to the nearest of ``sources`` (one vertex or several),
    -1 where no source is reachable."""
    dist = dijkstra(pmap.adjacency, indices=np.atleast_1d(sources),
                    unweighted=True, min_only=True)
    return np.where(np.isfinite(dist), dist, -1).astype(np.int64)


def build_map(rotations, conductances=None) -> PlanarMap:
    """Build a planar map from per-vertex neighbor lists in rotation order.

    ``rotations[v]`` lists the neighbors of ``v`` counterclockwise.  Parallel
    edges are paired by occurrence: the k-th appearance of ``u`` in
    ``rotations[v]`` matches the k-th appearance of ``v`` in ``rotations[u]``,
    and the occurrences of ``v`` in its own list pair off in turn as loops.
    Edge ``k`` is the k-th edge by the position of its first half-edge in the
    concatenated lists, which holds dart ``2k``.  ``conductances`` may be
    ``None`` (all 1), a scalar, or an iterable of ``(u, v, c)`` triples;
    unlisted edges default to 1.

    The lists are checked here, then flattened once and handed to
    ``_pair_half_edges``, the one pairing core, which the generators in
    ``tilings`` call directly on the neighbor arrays they build.
    """
    n = len(rotations)
    if n == 0:
        raise ValueError("empty map")
    entries, lengths = [], []
    for v, nbrs in enumerate(rotations):
        if not isinstance(nbrs, (list, tuple, np.ndarray)):
            raise ValueError(f"rotation of vertex {v} is not a list")
        entries.extend(nbrs)
        lengths.append(len(nbrs))
    if not entries:
        raise ValueError("map has no edges")
    m = len(entries)
    try:
        dst = np.fromiter(map(operator.index, entries), np.int64, m)
    except (TypeError, OverflowError):
        dst = None
    if dst is None or np.any((dst < 0) | (dst >= n)):
        src = np.repeat(np.arange(n), lengths)
        i, u = next((i, u) for i, u in enumerate(entries)
                    if not (isinstance(u, numbers.Integral) and 0 <= u < n))
        kind = "out-of-range" if isinstance(u, numbers.Integral) else "non-integer"
        raise ValueError(f"vertex {src[i]} lists {kind} neighbor {u}")
    return _pair_half_edges(dst, np.array(lengths, dtype=np.int64), conductances)


def _pair_half_edges(dst: np.ndarray, degrees: np.ndarray, conductances=None) -> PlanarMap:
    """Planar map from the concatenated neighbor lists ``dst`` (int64, every
    entry a vertex) split into per-vertex groups of ``degrees``, numbered and
    weighted as ``build_map`` documents."""
    n, m = degrees.size, dst.size
    src = np.repeat(np.arange(n), degrees)     # origin of each half-edge
    # occurrence rank of each half-edge among those from src to dst; the
    # sorts are stable, so ties keep the order of the concatenated lists
    pair = src * n + dst
    by_pair = np.argsort(pair, kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[by_pair] = np.arange(m) - np.searchsorted(pair[by_pair], pair[by_pair])
    loop = src == dst
    rank[loop] //= 2
    # the two half-edges of an edge share (lo, hi, rank) and no others do
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    order = np.lexsort((rank, hi, lo))
    key = np.stack([lo, hi, rank])[:, order]
    same = np.all(key[:, 1:] == key[:, :-1], axis=0)
    alone = order[~(np.r_[False, same] | np.r_[same, False])]
    if alone.size:
        e = int(alone.min())
        if loop[e]:
            raise ValueError(f"dangling half-edge: odd loop count at vertex {src[e]}")
        raise ValueError(f"dangling half-edge between {src[e]} and {dst[e]}")
    # edge k holds the k-th first half-edge; its darts are 2k and 2k + 1
    pairs = order.reshape(-1, 2)
    dart = np.empty(m, dtype=np.int64)
    dart[pairs[np.argsort(pairs[:, 0])].ravel()] = np.arange(m)

    cond = np.ones(m)
    if conductances is not None:
        if np.isscalar(conductances):
            cond[:] = float(conductances)
        else:
            cond[dart] = _listed_conductances(list(conductances), src, dst, n)
    return PlanarMap(dart, np.r_[0, np.cumsum(degrees)], cond)


def _is_triple(entry) -> bool:
    try:
        u, v, c = map(float, entry)
        return u.is_integer() and v.is_integer()
    except (TypeError, ValueError):
        return False


def _listed_conductances(entries, src, dst, n) -> np.ndarray:
    """Conductance of each half-edge ``src -> dst`` from ``(u, v, c)``
    entries, 1 where no entry names its edge; a later entry overrides an
    earlier one."""
    try:
        table = np.array(entries, dtype=float).reshape(len(entries), 3)
    except (TypeError, ValueError):
        table = None
    if table is None or np.any(table[:, :2] != np.round(table[:, :2])):
        i = next(i for i, entry in enumerate(entries) if not _is_triple(entry))
        raise ValueError(f"conductance entry {i} ({entries[i]!r}) is not a (u, v, c) triple")
    ends = np.sort(table[:, :2], axis=1)
    keys = ends[:, 0] * n + ends[:, 1]
    half_keys = np.minimum(src, dst) * n + np.maximum(src, dst)
    stray = np.flatnonzero((ends[:, 0] < 0) | (ends[:, 1] >= n) | ~np.isin(keys, half_keys))
    if stray.size:
        raise ValueError(f"conductance entry {stray[0]} ({entries[stray[0]]!r}) "
                         "names no edge of the map")
    listed, last = np.unique(keys[::-1], return_index=True)
    out = np.ones(src.size)
    hit = np.isin(half_keys, listed)
    out[hit] = table[::-1, 2][last][np.searchsorted(listed, half_keys[hit])]
    return out


# ---------------------------------------------------------------------------
# faces and duals
# ---------------------------------------------------------------------------

def _cycles(perm: np.ndarray):
    """Cycles of the permutation ``perm`` in CSR form ``(order, offsets,
    cycle_of)``: cycle ``k`` is ``order[offsets[k]:offsets[k + 1]]``.  Cycles
    are numbered by their smallest element, and each is listed from there
    along ``perm``.

    Pointer doubling: after a round with ``jump = perm^span``, ``low[e]`` is
    the smallest element among the first ``span`` of the orbit of ``e`` and
    ``ahead[e]`` the steps from ``e`` to it.  Once a round lowers no entry,
    windows of that length tile each cycle with equal minima, so every
    ``low`` is its cycle's minimum.
    """
    m = perm.size
    low, ahead, jump, span = np.arange(m), np.zeros(m, dtype=np.int64), perm, 1
    while True:
        later = low[jump]
        lower = later < low
        if not lower.any():
            break
        low = np.where(lower, later, low)
        ahead = np.where(lower, ahead[jump] + span, ahead)
        jump, span = jump[jump], 2 * span
    cycle_of = np.searchsorted(np.flatnonzero(low == np.arange(m)), low)
    sizes = np.bincount(cycle_of)
    offsets = np.r_[0, np.cumsum(sizes)]
    order = np.empty(m, dtype=np.int64)
    order[offsets[cycle_of] + (sizes[cycle_of] - ahead) % sizes[cycle_of]] = np.arange(m)
    return order, offsets, cycle_of


@dataclass(frozen=True)
class FaceStructure:
    """Faces of a map: the cycles of ``e -> nxt[e ^ 1]``, each to the left of
    its darts, in the CSR layout of a rotation system.

    Face ``f`` is the orbit ``order[offsets[f]:offsets[f + 1]]``.  Faces are
    numbered by their smallest dart, and each orbit starts there.
    """

    order: np.ndarray            # every dart, grouped by face in orbit order
    offsets: np.ndarray          # n_faces + 1 orbit boundaries
    face_of: np.ndarray          # face index per dart
    degrees: np.ndarray          # darts per face

    @property
    def n_faces(self) -> int:
        return self.degrees.size

    def vertices(self, pmap: PlanarMap, f: int) -> np.ndarray:
        return pmap.origin[self.order[self.offsets[f]:self.offsets[f + 1]]]


def trace_faces(pmap: PlanarMap) -> FaceStructure:
    order, offsets, face_of = _cycles(pmap.nxt[np.arange(pmap.n_darts) ^ 1])
    return FaceStructure(order, offsets, face_of, np.diff(offsets))


def euler_characteristic(pmap: PlanarMap, faces: FaceStructure | None = None) -> int:
    faces = trace_faces(pmap) if faces is None else faces
    return pmap.n_vertices - pmap.n_edges + faces.n_faces


def dual_map(pmap: PlanarMap, faces: FaceStructure | None = None) -> PlanarMap:
    """Dual map: one vertex per face, dart ``e`` running from the face left of
    ``e`` to the face right of ``e``.  The face orbits are the dual rotation
    system, and conductances become reciprocals."""
    faces = trace_faces(pmap) if faces is None else faces
    return PlanarMap(faces.order, faces.offsets, 1.0 / pmap.conductance)


# ---------------------------------------------------------------------------
# polyhedrality
# ---------------------------------------------------------------------------

def is_polyhedral(pmap: PlanarMap) -> bool:
    """True when the map is simple (no loops or parallel edges) and its graph
    is 3-connected.

    A simple plane map with minimum degree >= 3 is 3-connected iff every
    face walk visits each vertex at most once and any two faces meet in
    nothing, in one vertex or in one common edge (Mohar & Thomassen, *Graphs
    on Surfaces*, 2001).  With visits counted, that is: any two faces share
    at most two vertex visits, and two only when an edge separates them.  A
    walk that visits a vertex twice shares two visits with every other face
    at that vertex, and some such vertex has another face, so repeated
    visits need no test of their own.
    """
    if pmap.simple_defect() is not None:
        return False
    if pmap.n_vertices < 4 or int(pmap.degrees.min()) < 3:
        return False
    faces = trace_faces(pmap)
    n_faces = faces.n_faces
    # entry (f, v) counts the visits of face walk f to vertex v
    incidence = sp.csr_matrix((np.ones(pmap.n_darts), (faces.face_of, pmap.origin)),
                              shape=(n_faces, pmap.n_vertices))
    shared = sp.triu(incidence @ incidence.T, k=1).tocoo()
    if np.any(shared.data > 2):
        return False
    two = shared.data == 2
    left, right = faces.face_of[0::2], faces.face_of[1::2]
    across_edge = np.minimum(left, right) * n_faces + np.maximum(left, right)
    return bool(np.all(np.isin(shared.row[two] * n_faces + shared.col[two], across_edge)))


# ---------------------------------------------------------------------------
# truncations
# ---------------------------------------------------------------------------

def induce_submap(pmap: PlanarMap, keep: np.ndarray):
    """Induced submap on the kept vertices (rotation orders preserved).

    Returns ``(submap, parent_vertices)`` where ``parent_vertices[i]`` is the
    original id of new vertex ``i``.
    """
    keep = np.asarray(keep, dtype=bool)
    parent_vertices = np.flatnonzero(keep)
    dart_kept = keep[pmap.origin] & keep[pmap.target]
    if not dart_kept.any():
        raise ValueError("induced submap has no edges")
    # kept darts keep their order, so an edge's darts stay 2k and 2k + 1
    new_dart = np.cumsum(dart_kept) - 1
    darts = pmap.rotation[dart_kept[pmap.rotation]]
    degrees = np.bincount(pmap.origin[darts], minlength=pmap.n_vertices)[parent_vertices]
    if np.any(degrees == 0):
        v = int(parent_vertices[np.argmin(degrees)])
        raise ValueError(f"vertex {v} would be isolated in the submap")
    sub = PlanarMap(new_dart[darts], np.r_[0, np.cumsum(degrees)],
                    pmap.conductance[dart_kept])
    return sub, parent_vertices


@dataclass(frozen=True)
class DartTree:
    """Breadth-first spanning tree of the darts a layout can reach from the
    root's first dart (see ``Truncation.dart_tree``).

    Entry ``i`` describes dart ``order[i]``; entry 0 is the root dart, its own
    parent.  A child's direction is its parent's plus a turn: pi when the
    child is the parent's reverse, otherwise ``turn_sign[i]`` times the kite
    corner at dart ``turn_dart[i]``.
    """

    order: np.ndarray        # reached darts, level by level
    parent: np.ndarray       # parent dart of each entry
    levels: np.ndarray       # order[levels[k]:levels[k + 1]] is level k
    reverse: np.ndarray      # entry is its parent's reverse dart
    turn_sign: np.ndarray    # -1 (back across the parent's corner) or +1
    turn_dart: np.ndarray    # dart whose kite corner the turn crosses
    vertex_dart: np.ndarray  # first entry leaving each vertex, -1 if none
    face_dart: np.ndarray    # first entry bordering each bounded face, else -1


@dataclass(frozen=True)
class CornerPattern:
    """Sparsity of the interior-vertex Schur complement of the vertex-face
    Laplacian over the corners of a truncation, grounded at the boundary, in
    a fill-reducing order (see ``Truncation.corner_pattern``).

    The Laplacian joins a vertex only to faces and a face only to vertices,
    so its face block is diagonal and eliminating the bounded faces leaves
    S = D_v - B D_f^-1 B^T on the interior vertices.  A corner is free when
    its vertex is interior.  The entries of S come in two runs: the vertex
    diagonal of every free corner, then one entry for every ordered pair of
    free corners on a common face.
    """

    free: np.ndarray         # free corners, by index
    vertex: np.ndarray       # interior index of each free corner's vertex
    face: np.ndarray         # bounded-face index of each free corner's face
    pair: np.ndarray         # (2, n_pairs) free corners on a common face
    order: np.ndarray        # interior vertex at each permuted row and column
    position: np.ndarray     # permuted row and column of each interior vertex
    slot: np.ndarray         # CSC slot of each entry; equal slots sum
    matrix: sp.csc_matrix    # the permuted matrix; each step overwrites its data


class Truncation:
    """A finite map with a designated grounding boundary around a root.

    ``graph`` is a self-contained relabeled map; ``boundary`` separates the
    interior from whatever was discarded from ``parent``.  All potential-
    theoretic operations act on truncations, with any nonempty grounding
    set whose complement is connected, e.g. the leaves of a star.  Circle
    packing asks more (``rim_is_boundary`` among it) and checks that itself.
    """

    def __init__(self, graph: PlanarMap, boundary_ids, root: int,
                 radius: int, parent: PlanarMap | None = None,
                 parent_vertices: np.ndarray | None = None):
        self.graph = graph
        self.boundary = np.sort(integers("boundary_ids", boundary_ids, graph.n_vertices))
        self.root = _check_root(graph, root)
        self.radius = integer("radius", radius, 1)
        self.parent = parent
        self.parent_vertices = parent_vertices

        n = graph.n_vertices
        self.is_boundary = np.zeros(n, dtype=bool)
        self.is_boundary[self.boundary] = True
        self.interior = np.flatnonzero(~self.is_boundary)
        if self.boundary.size == 0:
            raise ValueError("truncation has an empty boundary")
        if self.interior.size == 0:
            raise ValueError("truncation has an empty interior")
        if self.is_boundary[self.root]:
            raise ValueError("root must be an interior vertex")

        self.dist_from_root = _bfs_distances(graph, self.root)
        self.faces = trace_faces(graph)
        self.outer_face = self._find_outer_face()
        self._check_interior_connected()

    def _find_outer_face(self) -> int | None:
        """The one face whose rim is exactly the boundary, or None when no
        face or more than one has that rim."""
        n = self.graph.n_vertices
        origin, face_of = self.graph.origin, self.faces.face_of
        n_faces = self.faces.n_faces
        off_rim = np.bincount(face_of[~self.is_boundary[origin]], minlength=n_faces)
        darts = np.flatnonzero(off_rim[face_of] == 0)
        visited = np.unique(face_of[darts] * n + origin[darts])
        rims = np.flatnonzero(np.bincount(visited // n, minlength=n_faces)
                              == self.boundary.size)
        return int(rims[0]) if rims.size == 1 else None

    @property
    def rim_is_boundary(self) -> bool:
        """True when one face has exactly the boundary as its rim: the outer
        face (required for packing; potential theory accepts arbitrary
        grounding sets)."""
        return self.outer_face is not None

    def _check_interior_connected(self):
        inner = self.graph.adjacency[self.interior][:, self.interior]
        _, label = connected_components(inner)
        root_label = label[np.searchsorted(self.interior, self.root)]
        cut_off = self.interior[label != root_label]
        if cut_off.size:
            raise ValueError(f"interior of the truncation is not connected: the "
                             f"boundary cuts interior vertex {cut_off[0]} off "
                             f"from the root {self.root}")

    # -- conveniences ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @cached_property
    def bounded_faces(self) -> np.ndarray:
        self._require_outer_face()
        return np.delete(np.arange(self.faces.n_faces), self.outer_face)

    @cached_property
    def corner_darts(self) -> np.ndarray:
        """Darts bordering a bounded face: one per vertex-face corner."""
        self._require_outer_face()
        return np.flatnonzero(self.faces.face_of != self.outer_face)

    @cached_property
    def dart_tree(self) -> DartTree:
        """The dart tree along which ``packing.layout`` places circles.

        From a dart ``e`` a layout reaches its reverse (turning by pi), the
        dart before it around its origin when ``e`` borders a bounded face
        (turning back across the corner of ``e``), and the dart after it when
        that one borders a bounded face (turning forward across its own
        corner); corners on the outer face are never crossed.  The tree
        depends only on the combinatorics, so it is built once.
        """
        self._require_outer_face()
        g = self.graph
        m = g.n_darts
        face_of = self.faces.face_of
        bounded = face_of != self.outer_face
        darts = np.arange(m)
        ahead = bounded[g.nxt]
        src = np.concatenate([darts, darts[bounded], darts[ahead]])
        dst = np.concatenate([darts ^ 1, g.prv[bounded], g.nxt[ahead]])
        adj = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(m, m))
        first = int(g.vertex_darts(self.root)[0])
        order, pred = breadth_first_order(adj, first, directed=True,
                                          return_predecessors=True)
        order = order.astype(np.int64)
        parent = pred[order].astype(np.int64)
        parent[0] = first

        # breadth-first order lists the darts by depth, one level after
        # another, and its queue takes the children of each dart in turn, so
        # the parents' positions never fall: level k + 1 ends where they
        # reach the end of level k
        position = np.empty(m, dtype=np.int64)
        position[order] = np.arange(order.size)
        above = position[parent]
        levels = [0, 1]
        while levels[-1] < order.size:
            levels.append(int(np.searchsorted(above, levels[-1])))
        levels = np.array(levels)

        reverse = order == (parent ^ 1)
        back = ~reverse & bounded[parent] & (order == g.prv[parent])
        back[0] = False
        turn_sign = np.where(back, -1, 1)
        turn_dart = np.where(back, parent, order)

        vertex_dart = np.full(g.n_vertices, -1, dtype=np.int64)
        v, i = np.unique(g.origin[order], return_index=True)
        vertex_dart[v] = order[i]
        face_dart = np.full(self.faces.n_faces, -1, dtype=np.int64)
        on_face = order[bounded[order]]
        f, i = np.unique(face_of[on_face], return_index=True)
        face_dart[f] = on_face[i]
        return DartTree(order, parent, levels, reverse, turn_sign,
                        turn_dart, vertex_dart, face_dart)

    @cached_property
    def corner_pattern(self) -> CornerPattern:
        """The pattern of the Schur complement that ``packing.solve_radii``
        factors at every Newton step, ordered once: one COLAMD pass by
        SuperLU over the complement at the first Euclidean step, all weights
        1.  On S, COLAMD fills more than symmetric minimum degree but factors
        faster (0.42 against 2.2 ms on the r=6 ball, 1.6 against 38 ms on
        the r=7 ball, on a 2-vCPU host).  Its column permutation ``perm_c``
        sends each interior vertex to its position; permuting by ``perm_c``
        itself instead of by its inverse fills 11 times as much on the r=6
        ball."""
        g = self.graph
        ni = self.interior.size
        index = np.full(g.n_vertices, -1, dtype=np.int64)
        index[self.interior] = np.arange(ni)
        darts = self.corner_darts
        cv = index[g.origin[darts]]
        cf = self.faces.face_of[darts]
        cf = cf - (cf > self.outer_face)
        free = np.flatnonzero(cv >= 0)
        vertex, face = cv[free], cf[free]

        # the ordered pairs of free corners on a common face are the
        # entries of C C^T, C the incidence of free corners and faces
        c = sp.csr_matrix((np.ones(face.size), (np.arange(face.size), face)),
                          shape=(face.size, self.bounded_faces.size))
        pair = np.stack((c @ c.T).nonzero())
        rows = np.concatenate([vertex, vertex[pair[0]]])
        cols = np.concatenate([vertex, vertex[pair[1]]])

        d_f = np.bincount(cf, minlength=self.bounded_faces.size)
        data = np.concatenate([np.ones(vertex.size), -1.0 / d_f[face[pair[0]]]])
        lu = splu(sp.csc_matrix((data, (rows, cols)), shape=(ni, ni)),
                  permc_spec="COLAMD", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        position = lu.perm_c.astype(np.int64)
        keys, slot = np.unique(position[cols] * ni + position[rows],
                               return_inverse=True)
        # intc indices, as SuperLU takes them, so no factorization copies them
        indptr = np.searchsorted(keys // ni, np.arange(ni + 1)).astype(np.intc)
        matrix = sp.csc_matrix((np.zeros(keys.size), (keys % ni).astype(np.intc), indptr),
                               shape=(ni, ni))
        return CornerPattern(free, vertex, face, pair, np.argsort(position),
                             position, slot, matrix)

    @cached_property
    def boundary_solver(self) -> PinnedSolve:
        """The graph Laplacian with the boundary pinned: its interior block
        is factored once, and every harmonic extension of boundary data on
        this truncation reuses that factorization."""
        return PinnedSolve(self.graph.laplacian, self.is_boundary)

    def _require_outer_face(self):
        if self.outer_face is None:
            raise InvariantViolation("truncation has no identified outer face")

    def __repr__(self):
        return (f"Truncation(n={self.n_vertices}, boundary={self.boundary.size}, "
                f"radius={self.radius})")


def _check_root(pmap: PlanarMap, root) -> int:
    """``root`` as an int, if it is an integer that names a vertex of ``pmap``."""
    root = integer("root", root)
    if not 0 <= root < pmap.n_vertices:
        raise ValueError(f"root {root} is not a vertex of the map, whose "
                         f"{pmap.n_vertices} vertices are numbered from 0")
    return root


def truncate(pmap: PlanarMap, root: int, radius: int) -> Truncation:
    """Graph-distance ball of the given radius: interior is the open ball,
    boundary the radius-sphere; discarded vertices are dropped entirely."""
    radius = integer("radius", radius, 1)
    root = _check_root(pmap, root)
    dist = _bfs_distances(pmap, root)
    if not np.any(dist == radius):
        raise ValueError(f"radius {radius} exceeds the map's reach from the root "
                         "(boundary sphere is empty)")
    keep = (0 <= dist) & (dist <= radius)
    sub, parent_vertices = induce_submap(pmap, keep)
    boundary = np.flatnonzero(dist[parent_vertices] == radius)
    new_root = int(np.flatnonzero(parent_vertices == root)[0])
    return Truncation(sub, boundary, new_root, radius,
                      parent=pmap, parent_vertices=parent_vertices)


def boundary_truncation(pmap: PlanarMap, root: int | None = None) -> Truncation:
    """Treat the rim of the map's largest face as the boundary (for patches,
    like rectangular grids, that are not graph-distance balls)."""
    faces = trace_faces(pmap)
    outer = int(np.argmax(faces.degrees))
    boundary = np.unique(faces.vertices(pmap, outer))
    inner = np.setdiff1d(np.arange(pmap.n_vertices), boundary)
    if inner.size == 0:
        raise ValueError("map has no interior vertex inside its rim")
    if root is not None:
        root = _check_root(pmap, root)
    else:
        # deepest interior vertex: maximize distance to the rim
        dist = _bfs_distances(pmap, boundary)
        root = int(inner[np.argmax(dist[inner])])
    dist_root = _bfs_distances(pmap, root)
    radius = int(dist_root[boundary].max())
    return Truncation(pmap, boundary, root, radius, parent=pmap,
                      parent_vertices=np.arange(pmap.n_vertices))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def map_to_json(pmap: PlanarMap) -> dict:
    payload = {"vertices": pmap.n_vertices,
               "rotations": [nbrs.tolist() for nbrs in pmap.neighbor_lists]}
    if not np.all(pmap.conductance == 1.0):
        edges = zip(pmap.origin[::2].tolist(), pmap.target[::2].tolist(),
                    pmap.conductance[::2].tolist())
        payload["conductances"] = [list(edge) for edge in edges]
    return payload


def load_map_json(source) -> PlanarMap:
    """Load a map from a JSON dict, or from a JSON file given as a path or
    an open text file.  Rotations that embed the graph in a surface of
    higher genus are rejected."""
    data = source if isinstance(source, dict) else json.loads(read_text(source))
    try:
        n = integer("vertices", data["vertices"])
        rotations = data["rotations"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"map JSON must contain 'vertices' and 'rotations': {exc}")
    if not isinstance(rotations, list) or len(rotations) != n:
        raise ValueError("rotation list length does not match vertex count")
    pmap = build_map(rotations, data.get("conductances"))
    # a connected rotation system (PlanarMap checks that) has V - E + F = 2 - 2g
    chi = euler_characteristic(pmap)
    if chi != 2:
        raise ValueError(f"map is not planar: V - E + F = {chi}, so its "
                         f"rotations embed it in a surface of genus {(2 - chi) // 2}")
    return pmap
