"""Finite planar maps as rotation systems.

A map is stored on *darts* (oriented edges).  Darts come in pairs: dart ``e``
and its reversal ``e ^ 1`` are the two orientations of one edge.  For every
dart we store its origin vertex and the next dart counterclockwise around that
origin; faces are the orbits of ``e -> next(rev(e))`` and lie to the left of
their darts.  Conductances are positive, symmetric edge weights (default 1).
Instances should be treated as immutable once constructed.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .errors import InvariantViolation

__all__ = [
    "PlanarMap",
    "FaceStructure",
    "MapData",
    "DartTree",
    "Truncation",
    "build_map",
    "trace_faces",
    "dual_map",
    "is_polyhedral",
    "map_data",
    "truncate",
    "boundary_truncation",
    "induce_submap",
    "load_map_json",
    "map_to_json",
    "canonical_encoding",
]


class PlanarMap:
    """Rotation-system encoding of a finite connected planar map.

    Parameters
    ----------
    origin:
        Integer array, origin vertex of each dart.  Dart ``e`` reverses to
        ``e ^ 1``, so darts ``2i`` and ``2i + 1`` form edge ``i``.
    nxt:
        Integer array, the next dart counterclockwise around ``origin[e]``.
    conductance:
        Positive weight per dart, equal on the two darts of an edge.
    vertex_darts:
        Optional list of per-vertex dart arrays in rotation order; derived
        from ``nxt`` when omitted.
    """

    def __init__(self, origin, nxt, conductance=None, vertex_darts=None, validate=True):
        self.origin = np.asarray(origin, dtype=np.int64)
        self.nxt = np.asarray(nxt, dtype=np.int64)
        m = self.origin.size
        if conductance is None:
            self.conductance = np.ones(m)
        else:
            self.conductance = np.asarray(conductance, dtype=float)
        if m % 2 or self.nxt.size != m or self.conductance.size != m:
            raise ValueError("dart arrays must have equal, even length")
        self.n_vertices = int(self.origin.max()) + 1 if m else 0
        if vertex_darts is not None:
            self._vertex_darts = [np.asarray(d, dtype=np.int64) for d in vertex_darts]
        else:
            self._vertex_darts = self._orbits_of_nxt()
        if validate:
            self._validate()

    # -- basic structure ---------------------------------------------------

    @property
    def n_darts(self) -> int:
        return self.origin.size

    @property
    def n_edges(self) -> int:
        return self.origin.size // 2

    @staticmethod
    def rev(e):
        """Reversal involution on darts (vectorizes over arrays)."""
        return e ^ 1

    @cached_property
    def target(self) -> np.ndarray:
        """Terminal vertex of each dart."""
        return self.origin[np.arange(self.n_darts) ^ 1]

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.origin, minlength=self.n_vertices)

    def vertex_darts(self, v: int) -> np.ndarray:
        """Darts leaving ``v`` in counterclockwise rotation order."""
        return self._vertex_darts[v]

    def neighbors(self, v: int) -> np.ndarray:
        return self.target[self._vertex_darts[v]]

    @cached_property
    def prv(self) -> np.ndarray:
        """Inverse of ``nxt`` (previous dart clockwise around the origin)."""
        p = np.empty_like(self.nxt)
        p[self.nxt] = np.arange(self.n_darts)
        return p

    @cached_property
    def neighbor_lists(self) -> list[np.ndarray]:
        return [self.target[d] for d in self._vertex_darts]

    def simple_defect(self) -> str | None:
        """"a loop" or "a doubled edge" when the map is not simple, else None."""
        if np.any(self.origin == self.target):
            return "a loop"
        ends = np.sort(np.stack([self.origin[::2], self.target[::2]], axis=1), axis=1)
        if len(np.unique(ends, axis=0)) != self.n_edges:
            return "a doubled edge"
        return None

    # -- construction helpers ---------------------------------------------

    def _orbits_of_nxt(self):
        seen = np.zeros(self.n_darts, dtype=bool)
        per_vertex = [None] * self.n_vertices
        for e0 in range(self.n_darts):
            if seen[e0]:
                continue
            orbit = []
            e = e0
            while not seen[e]:
                seen[e] = True
                orbit.append(e)
                e = int(self.nxt[e])
            v = int(self.origin[e0])
            if per_vertex[v] is not None:
                raise ValueError(f"rotation at vertex {v} splits into several cycles")
            per_vertex[v] = np.array(orbit, dtype=np.int64)
        for v, orbit in enumerate(per_vertex):
            if orbit is None:
                raise ValueError(f"vertex {v} has no darts (map must be connected)")
        return per_vertex

    def _validate(self):
        m = self.n_darts
        if m == 0:
            raise ValueError("empty map")
        if sorted(self.nxt.tolist()) != list(range(m)):
            raise ValueError("nxt is not a permutation of the darts")
        if np.any(self.origin[self.nxt] != self.origin):
            raise ValueError("nxt moves darts between vertices")
        if np.any(self.conductance <= 0) or not np.all(np.isfinite(self.conductance)):
            raise ValueError("non-positive conductance")
        if np.any(self.conductance != self.conductance[np.arange(m) ^ 1]):
            raise ValueError("conductance differs between the two darts of an edge")
        for v, darts in enumerate(self._vertex_darts):
            if np.any(self.origin[darts] != v):
                raise ValueError("vertex_darts inconsistent with origin")
        if np.any(_bfs_distances(self.neighbor_lists, 0) < 0):
            raise ValueError("map is not connected")

    # -- conveniences ------------------------------------------------------

    @cached_property
    def vertex_conductance(self) -> np.ndarray:
        """Total conductance c(v) incident to each vertex."""
        out = np.zeros(self.n_vertices)
        np.add.at(out, self.origin, self.conductance)
        return out

    def copy_with_conductance(self, conductance) -> "PlanarMap":
        """Same map with new weights, given per edge (length n_edges) or per
        dart (length n_darts)."""
        c = np.asarray(conductance, dtype=float)
        if c.size == self.n_edges:
            c = np.repeat(c, 2)
        return PlanarMap(self.origin, self.nxt, c,
                         vertex_darts=self._vertex_darts, validate=True)

    def __repr__(self):
        return f"PlanarMap(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def _bfs_distances(neighbor_lists, sources) -> np.ndarray:
    """Graph distance to the nearest of ``sources`` (one vertex or several),
    -1 where no source is reachable."""
    queue = deque(np.atleast_1d(sources).tolist())
    dist = np.full(len(neighbor_lists), -1, dtype=np.int64)
    dist[list(queue)] = 0
    while queue:
        v = queue.popleft()
        for u in neighbor_lists[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(int(u))
    return dist


def build_map(rotations, conductances=None) -> PlanarMap:
    """Build a planar map from per-vertex neighbor lists in rotation order.

    ``rotations[v]`` lists the neighbors of ``v`` counterclockwise.  Parallel
    edges are paired by occurrence: the k-th appearance of ``u`` in
    ``rotations[v]`` matches the k-th appearance of ``v`` in ``rotations[u]``.
    ``conductances`` may be ``None`` (all 1), a scalar, or an iterable of
    ``(u, v, c)`` triples; unlisted edges default to 1.
    """
    n = len(rotations)
    if n == 0:
        raise ValueError("empty map")
    flat = []                     # (v, u) per provisional dart
    occ: dict[tuple[int, int], list[int]] = defaultdict(list)
    for v, nbrs in enumerate(rotations):
        for u in nbrs:
            u = int(u)
            if not 0 <= u < n:
                raise ValueError(f"vertex {v} lists out-of-range neighbor {u}")
            occ[(v, u)].append(len(flat))
            flat.append((v, u))
    if not flat:
        raise ValueError("map has no edges")

    rev = np.full(len(flat), -1, dtype=np.int64)
    for (v, u), ids in occ.items():
        if v == u:
            if len(ids) % 2:
                raise ValueError(f"dangling half-edge: odd loop count at vertex {v}")
            for a, b in zip(ids[0::2], ids[1::2]):
                rev[a], rev[b] = b, a
        elif v < u:
            partner = occ.get((u, v), [])
            if len(partner) != len(ids):
                raise ValueError(f"dangling half-edge between {v} and {u}")
            for a, b in zip(ids, partner):
                rev[a], rev[b] = b, a
    if np.any(rev < 0):
        v, u = flat[int(np.flatnonzero(rev < 0)[0])]
        raise ValueError(f"dangling half-edge between {v} and {u}")

    # Renumber so an edge's darts are 2k and 2k + 1.
    new_id = np.full(len(flat), -1, dtype=np.int64)
    k = 0
    for e in range(len(flat)):
        if new_id[e] < 0:
            new_id[e] = 2 * k
            new_id[rev[e]] = 2 * k + 1
            k += 1
    m = 2 * k
    origin = np.empty(m, dtype=np.int64)
    nxt = np.empty(m, dtype=np.int64)
    vertex_darts = []
    pos = 0
    for v, nbrs in enumerate(rotations):
        ids = new_id[pos:pos + len(nbrs)]
        pos += len(nbrs)
        if len(ids) == 0:
            raise ValueError(f"vertex {v} has no darts (map must be connected)")
        origin[ids] = v
        nxt[ids] = np.roll(ids, -1)
        vertex_darts.append(ids.copy())

    cond = np.ones(m)
    if conductances is not None:
        if np.isscalar(conductances):
            cond[:] = float(conductances)
        else:
            triples = list(conductances)
            lookup = {}
            for u, v, c in triples:
                lookup[(int(u), int(v))] = float(c)
                lookup[(int(v), int(u))] = float(c)
            targets = origin[np.arange(m) ^ 1]
            for e in range(m):
                c = lookup.get((int(origin[e]), int(targets[e])))
                if c is not None:
                    cond[e] = c
    return PlanarMap(origin, nxt, cond, vertex_darts=vertex_darts)


# ---------------------------------------------------------------------------
# faces and duals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceStructure:
    """Faces of a map: orbits of ``e -> next(rev(e))``, each to the left of
    its darts."""

    n_faces: int
    face_of: np.ndarray          # face index per dart
    degrees: np.ndarray          # darts per face
    darts: tuple                 # orbit per face, in traversal order

    def vertices(self, pmap: PlanarMap, f: int) -> np.ndarray:
        return pmap.origin[np.asarray(self.darts[f])]


def trace_faces(pmap: PlanarMap) -> FaceStructure:
    perm = pmap.nxt[np.arange(pmap.n_darts) ^ 1]
    face_of = np.full(pmap.n_darts, -1, dtype=np.int64)
    orbits = []
    for e0 in range(pmap.n_darts):
        if face_of[e0] >= 0:
            continue
        f = len(orbits)
        orbit = []
        e = e0
        while face_of[e] < 0:
            face_of[e] = f
            orbit.append(e)
            e = int(perm[e])
        orbits.append(np.array(orbit, dtype=np.int64))
    degrees = np.array([len(o) for o in orbits], dtype=np.int64)
    return FaceStructure(len(orbits), face_of, degrees, tuple(orbits))


def euler_characteristic(pmap: PlanarMap, faces: FaceStructure | None = None) -> int:
    faces = trace_faces(pmap) if faces is None else faces
    return pmap.n_vertices - pmap.n_edges + faces.n_faces


def dual_map(pmap: PlanarMap, faces: FaceStructure | None = None) -> PlanarMap:
    """Dual map: one vertex per face, dart ``e`` running from the face left of
    ``e`` to the face right of ``e``.  Conductances become reciprocals."""
    faces = trace_faces(pmap) if faces is None else faces
    origin = faces.face_of.copy()
    nxt = pmap.nxt[np.arange(pmap.n_darts) ^ 1]
    return PlanarMap(origin, nxt, 1.0 / pmap.conductance)


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


@dataclass(frozen=True)
class MapData:
    """Degree/codegree/conductance extremes, recomputable by direct scan."""

    max_degree: int
    max_codegree: int
    min_conductance: float
    max_conductance: float


def map_data(pmap: PlanarMap, faces: FaceStructure | None = None,
             skip_face: int | None = None) -> MapData:
    faces = trace_faces(pmap) if faces is None else faces
    deg = faces.degrees
    if skip_face is not None:
        deg = np.delete(deg, skip_face)
    return MapData(int(pmap.degrees.max()), int(deg.max()),
                   float(pmap.conductance.min()), float(pmap.conductance.max()))


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
    new_vertex = np.full(pmap.n_vertices, -1, dtype=np.int64)
    new_vertex[parent_vertices] = np.arange(parent_vertices.size)

    dart_kept = keep[pmap.origin] & keep[pmap.target]
    old_ids = np.flatnonzero(dart_kept)
    if old_ids.size == 0:
        raise ValueError("induced submap has no edges")
    # keep an edge's darts adjacent so rev stays e ^ 1
    new_dart = np.full(pmap.n_darts, -1, dtype=np.int64)
    evens = old_ids[old_ids % 2 == 0]
    new_dart[evens] = 2 * np.arange(evens.size)
    new_dart[evens ^ 1] = 2 * np.arange(evens.size) + 1
    m = 2 * evens.size

    origin = np.empty(m, dtype=np.int64)
    nxt = np.empty(m, dtype=np.int64)
    cond = np.empty(m)
    vertex_darts = []
    for v in parent_vertices:
        darts = pmap.vertex_darts(int(v))
        darts = darts[dart_kept[darts]]
        if darts.size == 0:
            raise ValueError(f"vertex {int(v)} would be isolated in the submap")
        ids = new_dart[darts]
        origin[ids] = new_vertex[int(v)]
        nxt[ids] = np.roll(ids, -1)
        cond[ids] = pmap.conductance[darts]
        vertex_darts.append(ids)
    sub = PlanarMap(origin, nxt, cond, vertex_darts=vertex_darts)
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


class Truncation:
    """A finite map with a designated grounding boundary around a root.

    ``graph`` is a self-contained relabeled map; ``boundary`` separates the
    interior from whatever was discarded from ``parent``.  All potential-
    theoretic operations act on truncations.  ``truncate`` and
    ``boundary_truncation`` additionally guarantee ``rim_is_boundary`` (the
    boundary is exactly the rim of the outer face), which circle packing
    requires; direct construction accepts any nonempty grounding set whose
    complement is connected, e.g. the leaves of a star.
    """

    def __init__(self, graph: PlanarMap, boundary_ids, root: int,
                 radius: int, parent: PlanarMap | None = None,
                 parent_vertices: np.ndarray | None = None):
        self.graph = graph
        self.boundary = np.sort(np.asarray(boundary_ids, dtype=np.int64))
        self.root = int(root)
        self.radius = int(radius)
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

        self.dist_from_root = _bfs_distances(graph.neighbor_lists, self.root)
        self.faces = trace_faces(graph)
        try:
            self.outer_face = self._find_outer_face()
        except InvariantViolation:
            self.outer_face = None
        self._check_interior_connected()

    def _find_outer_face(self) -> int:
        deg = self.faces.degrees
        order = np.argsort(deg)[::-1]
        if deg.size > 1 and deg[order[0]] == deg[order[1]]:
            # fall back: the face carrying only boundary vertices
            cands = [f for f in range(self.faces.n_faces)
                     if np.all(self.is_boundary[self.faces.vertices(self.graph, f)])]
            if len(cands) != 1:
                raise InvariantViolation("outer face is ambiguous for this truncation")
            return cands[0]
        return int(order[0])

    @property
    def rim_is_boundary(self) -> bool:
        """True when the boundary is exactly the outer face rim (required for
        packing; potential theory accepts arbitrary grounding sets)."""
        if self.outer_face is None:
            return False
        rim = np.unique(self.faces.vertices(self.graph, self.outer_face))
        return bool(np.array_equal(rim, self.boundary))

    def _check_interior_connected(self):
        sub = [u[~self.is_boundary[u]] for u in self.graph.neighbor_lists]
        if np.any(_bfs_distances(sub, self.root)[self.interior] < 0):
            raise InvariantViolation("interior of the truncation is not connected")

    # -- conveniences ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @cached_property
    def bounded_faces(self) -> np.ndarray:
        self._require_outer_face()
        return np.array([f for f in range(self.faces.n_faces) if f != self.outer_face],
                        dtype=np.int64)

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

        # children are queued in the order their parents are dequeued, so
        # parent positions never decrease along ``order`` and each level is
        # the run of entries whose parents lie in the level before
        position = np.empty(m, dtype=np.int64)
        position[order] = np.arange(order.size)
        parent_position = position[parent[1:]]
        levels = [0, 1]
        while levels[-1] < order.size:
            levels.append(1 + int(np.searchsorted(parent_position, levels[-1])))

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
        return DartTree(order, parent, np.array(levels), reverse, turn_sign,
                        turn_dart, vertex_dart, face_dart)

    def _require_outer_face(self):
        if self.outer_face is None:
            raise InvariantViolation("truncation has no identified outer face")

    def __repr__(self):
        return (f"Truncation(n={self.n_vertices}, boundary={self.boundary.size}, "
                f"radius={self.radius})")


def truncate(pmap: PlanarMap, root: int, radius: int) -> Truncation:
    """Graph-distance ball of the given radius: interior is the open ball,
    boundary the radius-sphere; discarded vertices are dropped entirely."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    dist = _bfs_distances(pmap.neighbor_lists, root)
    if not np.any(dist == radius):
        raise ValueError(f"radius {radius} exceeds the map's reach from the root "
                         "(boundary sphere is empty)")
    keep = (0 <= dist) & (dist <= radius)
    sub, parent_vertices = induce_submap(pmap, keep)
    boundary = np.flatnonzero(dist[parent_vertices] == radius)
    new_root = int(np.flatnonzero(parent_vertices == root)[0])
    trunc = Truncation(sub, boundary, new_root, radius,
                       parent=pmap, parent_vertices=parent_vertices)
    if not trunc.rim_is_boundary:
        raise InvariantViolation("boundary does not coincide with the outer face rim")
    return trunc


def boundary_truncation(pmap: PlanarMap, root: int | None = None) -> Truncation:
    """Treat the rim of the map's largest face as the boundary (for patches,
    like rectangular grids, that are not graph-distance balls)."""
    faces = trace_faces(pmap)
    outer = int(np.argmax(faces.degrees))
    boundary = np.unique(faces.vertices(pmap, outer))
    inner = np.setdiff1d(np.arange(pmap.n_vertices), boundary)
    if inner.size == 0:
        raise ValueError("map has no interior vertex inside its rim")
    if root is None:
        # deepest interior vertex: maximize distance to the rim
        dist = _bfs_distances(pmap.neighbor_lists, boundary)
        root = int(inner[np.argmax(dist[inner])])
    dist_root = _bfs_distances(pmap.neighbor_lists, root)
    radius = int(dist_root[boundary].max())
    trunc = Truncation(pmap, boundary, root, radius, parent=pmap,
                       parent_vertices=np.arange(pmap.n_vertices))
    if not trunc.rim_is_boundary:
        raise InvariantViolation("boundary does not coincide with the outer face rim")
    return trunc


# ---------------------------------------------------------------------------
# serialization and canonical form
# ---------------------------------------------------------------------------

def map_to_json(pmap: PlanarMap) -> dict:
    rotations = [pmap.target[pmap.vertex_darts(v)].tolist()
                 for v in range(pmap.n_vertices)]
    payload = {"vertices": pmap.n_vertices, "rotations": rotations}
    if not np.all(pmap.conductance == 1.0):
        edges = []
        for e in range(0, pmap.n_darts, 2):
            edges.append([int(pmap.origin[e]), int(pmap.target[e]),
                          float(pmap.conductance[e])])
        payload["conductances"] = edges
    return payload


def load_map_json(source) -> PlanarMap:
    """Load a map from a JSON dict, JSON string, or path to a JSON file."""
    if isinstance(source, dict):
        data = source
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        data = json.loads(source)
    else:
        with open(source) as fh:
            data = json.load(fh)
    try:
        n = int(data["vertices"])
        rotations = data["rotations"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"map JSON must contain 'vertices' and 'rotations': {exc}")
    if len(rotations) != n:
        raise ValueError("rotation list length does not match vertex count")
    return build_map(rotations, data.get("conductances"))


def canonical_encoding(pmap: PlanarMap) -> tuple:
    """Canonical form of the rotation system under orientation-preserving
    relabeling; two maps are isomorphic iff their encodings match."""
    m = pmap.n_darts
    rev = np.arange(m) ^ 1
    best = None
    for start in range(m):
        label = np.full(m, -1, dtype=np.int64)
        order = []
        label[start] = 0
        order.append(start)
        head = 0
        while head < len(order):
            e = order[head]
            head += 1
            for f in (int(pmap.nxt[e]), int(rev[e])):
                if label[f] < 0:
                    label[f] = len(order)
                    order.append(f)
        enc = tuple((int(label[pmap.nxt[e]]), int(label[rev[e]])) for e in order)
        if best is None or enc < best:
            best = enc
    return best
