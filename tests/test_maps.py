"""Combinatorial map layer: construction, faces, duals, polyhedrality,
tilings, truncations, serialization."""

import hashlib
import io
import json
import re
from collections import defaultdict

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import breadth_first_order

from doublepack.maps import (
    PlanarMap,
    Truncation,
    build_map,
    boundary_truncation,
    dual_map,
    euler_characteristic,
    induce_submap,
    is_polyhedral,
    load_map_json,
    map_to_json,
    trace_faces,
    truncate,
)
from doublepack.maps import _bfs_distances
from doublepack.tilings import generate_grid, generate_tiling

from conftest import TWO_WHEELS, delaunay_rotations

TRIANGLE = [[1, 2], [2, 0], [0, 1]]
K4 = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]
# planar drawing with the outer square 0-3 and the inner square 4-7;
# rotations read off counterclockwise from coordinates
CUBE = [
    [1, 4, 3], [2, 5, 0], [3, 6, 1], [0, 7, 2],
    [5, 7, 0], [6, 4, 1], [2, 7, 5], [6, 3, 4],
]


def brute_force_polyhedral(pmap):
    """Reference oracle: simple + cannot be disconnected by removing any
    vertex pair (vertex connectivity >= 3), checked exhaustively."""
    n = pmap.n_vertices
    if n < 4:
        return False
    adj = [set() for _ in range(n)]
    for e in range(pmap.n_darts):
        u, v = int(pmap.origin[e]), int(pmap.target[e])
        if u == v or v in adj[u]:
            return False  # loop or doubled edge
        adj[u].add(v)
    for u in range(n):
        for w in range(u + 1, n):
            removed = {u, w}
            start = next(x for x in range(n) if x not in removed)
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in removed and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) < n - 2:
                return False
    return True


def random_delaunay_map(n, n_cut, seed):
    """Delaunay triangulation of ``n`` seeded points in the unit square with
    ``n_cut`` seeded edges deleted, or None when the deletions disconnect it."""
    rng = np.random.default_rng(seed)
    rotations = delaunay_rotations(rng.random((n, 2)))
    edges = [(u, v) for u in range(n) for v in rotations[u] if u < v]
    for i in rng.choice(len(edges), size=n_cut, replace=False):
        u, v = edges[i]
        rotations[u].remove(v)
        rotations[v].remove(u)
    try:
        return build_map(rotations)
    except ValueError as exc:
        if "connected" not in str(exc):
            raise
        return None


def delaunay_multigraph(n, n_double, n_loops, seed):
    """Rotation lists of the Delaunay triangulation of ``n`` seeded points
    with ``n_double`` edges doubled (each copy placed beside the original at
    both ends) and ``n_loops`` loops added, their two half-edges inserted at
    seeded places in one rotation."""
    rng = np.random.default_rng(seed)
    rotations = delaunay_rotations(rng.random((n, 2)))
    edges = [(u, v) for u in range(n) for v in rotations[u] if u < v]
    for i in rng.choice(len(edges), size=n_double, replace=False):
        u, v = edges[i]
        for a, b in ((u, v), (v, u)):
            rotations[a].insert(rotations[a].index(b) + int(rng.integers(2)), b)
    for v in rng.choice(n, size=n_loops).tolist():
        for _ in range(2):
            rotations[v].insert(int(rng.integers(len(rotations[v]) + 1)), v)
    return rotations


def build_map_reference(rotations):
    """Loop reference for build_map's numbering: half-edges paired by
    occurrence through a dict of lists, then renumbered in order of first
    half-edge.  Returns the CSR rotation and the origin and nxt arrays."""
    flat, occ = [], defaultdict(list)
    for v, nbrs in enumerate(rotations):
        for u in nbrs:
            occ[(v, u)].append(len(flat))
            flat.append((v, u))
    rev = np.full(len(flat), -1)
    for (v, u), ids in occ.items():
        if v == u:
            for a, b in zip(ids[0::2], ids[1::2]):
                rev[a], rev[b] = b, a
        elif v < u:
            for a, b in zip(ids, occ[(u, v)]):
                rev[a], rev[b] = b, a
    new_id = np.full(len(flat), -1, dtype=np.int64)
    k = 0
    for e in range(len(flat)):
        if new_id[e] < 0:
            new_id[e], new_id[rev[e]] = 2 * k, 2 * k + 1
            k += 1
    origin = np.empty(len(flat), dtype=np.int64)
    nxt = np.empty(len(flat), dtype=np.int64)
    pos = 0
    for v, nbrs in enumerate(rotations):
        ids = new_id[pos:pos + len(nbrs)]
        pos += len(nbrs)
        origin[ids] = v
        nxt[ids] = np.roll(ids, -1)
    return new_id, origin, nxt


def trace_faces_reference(nxt):
    """Loop reference for trace_faces: each orbit of e -> nxt[e ^ 1] walked
    from its smallest dart.  Returns face_of and the orbits."""
    perm = nxt[np.arange(nxt.size) ^ 1]
    face_of = np.full(nxt.size, -1, dtype=np.int64)
    orbits = []
    for e0 in range(nxt.size):
        orbit, e = [], e0
        while face_of[e] < 0:
            face_of[e] = len(orbits)
            orbit.append(e)
            e = perm[e]
        if orbit:
            orbits.append(orbit)
    return face_of, orbits


def canonical_encoding(pmap):
    """Canonical form of the rotation system under orientation-preserving
    relabeling, the oracle of the numbering pins: two maps are isomorphic
    iff their encodings match.  Each start numbers the darts breadth-first
    along ``nxt[e]``, then ``e ^ 1``; the least list of those numbers, dart
    by dart, is kept."""
    m = pmap.n_darts
    darts = np.arange(m)
    succ = np.stack([pmap.nxt, darts ^ 1], axis=1)
    graph = sp.csr_matrix((np.ones(2 * m), succ.ravel(), np.arange(0, 2 * m + 1, 2)),
                          shape=(m, m))
    label = np.empty(m, dtype=np.int64)
    best = np.full(2 * m, m)    # above every encoding
    for start in range(m):
        order = breadth_first_order(graph, start, return_predecessors=False)
        label[order] = darts
        enc = label[succ[order]].ravel()
        diff = np.flatnonzero(enc != best)
        if diff.size and enc[diff[0]] < best[diff[0]]:
            best = enc
    return tuple(zip(best[0::2].tolist(), best[1::2].tolist()))


def relabeled(pmap, seed):
    """The same map with its vertices, its edges and the two darts of each
    edge renumbered at random, and each rotation started at a random dart."""
    rng = np.random.default_rng(seed)
    darts = np.arange(pmap.n_darts)
    edge = rng.permutation(pmap.n_edges)
    flip = rng.integers(0, 2, pmap.n_edges)
    new = 2 * edge[darts // 2] + (darts % 2 ^ flip[darts // 2])
    groups = [np.roll(new[pmap.vertex_darts(v)], -rng.integers(pmap.degrees[v]))
              for v in rng.permutation(pmap.n_vertices)]
    offsets = np.concatenate([[0], np.cumsum([g.size for g in groups])])
    return PlanarMap(np.concatenate(groups), offsets)


def generate_tiling_reference(p, q, layers):
    """List reference for generate_tiling: the same face-by-face growth
    with the rim gathered into a list, then every kept vertex renumbered
    and its rotation turned one at a time, and the lists paired by
    build_map."""
    nbrs = [[1, q - 1]] + [[(j + 1) % q, j - 1] for j in range(1, q)]
    interior = [False] * q
    dist = [0] + [-1] * (q - 1)
    order = [0]
    for v in order:
        if dist[v] == layers:
            break
        while not interior[v]:
            rim = [nbrs[v][-1], v]
            while len(nbrs[rim[0]]) == p:
                rim.insert(0, nbrs[rim[0]][-1])
            while len(nbrs[rim[-1]]) == p:
                rim.append(nbrs[rim[-1]][0])
            for x in rim[1:-1]:
                interior[x] = True
            walk = [rim[-1], *range(len(nbrs), len(nbrs) + q - len(rim)), rim[0]]
            nbrs.extend([a, b] for a, b in zip(walk, walk[2:]))
            interior.extend([False] * (len(walk) - 2))
            nbrs[walk[0]].append(walk[1])
            nbrs[walk[-1]].insert(0, walk[-2])
        dist.extend([-1] * (len(nbrs) - len(dist)))
        for u in nbrs[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                order.append(u)

    kept = sorted(order)
    new_id = [-1] * len(nbrs)
    for i, v in enumerate(kept):
        new_id[v] = i
    rotations = []
    for v in kept:
        nb = nbrs[v]
        if v:
            up = dist[v] - 1
            i = next((j for j, u in enumerate(nb)
                      if dist[u] == up and dist[nb[j - 1]] != up), 1)
            nb = nb[i - 1:] + nb[:i - 1]
        rotations.append([new_id[u] for u in nb if dist[u] >= 0])
    return build_map(rotations)


def generate_grid_reference(nx, ny):
    """List reference for generate_grid: each vertex's east, north, west
    and south neighbors appended one at a time."""
    rotations = []
    for j in range(ny):
        for i in range(nx):
            rot = []
            if i + 1 < nx:
                rot.append(j * nx + i + 1)
            if j + 1 < ny:
                rot.append((j + 1) * nx + i)
            if i > 0:
                rot.append(j * nx + i - 1)
            if j > 0:
                rot.append((j - 1) * nx + i)
            rotations.append(rot)
    return build_map(rotations)


def assert_same_map(a, b):
    for name in ("rotation", "offsets", "conductance"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def cyclic_rotations(pmap):
    """Rotation lists, each turned to start at its smallest neighbor."""
    out = []
    for rot in map_to_json(pmap)["rotations"]:
        i = rot.index(min(rot))
        out.append(rot[i:] + rot[:i])
    return out


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of repr(canonical_encoding(...)) of the {p,q} balls built by the
# geometric construction that the combinatorial growth replaced (half-turns
# in the hyperboloid model, vertices deduplicated by position)
GEOMETRIC_BALL_DIGESTS = {
    (4, 4, 2): "ac574b67d229741ca1df833a5191ea6f2f6131bcab4cad15eea39ba858cb958e",
    (4, 4, 3): "7e9fe68d18f7221c63c6744d0aad8246a33a5c8cb2b0aa99feb9aa3f5d09dc7e",
    (5, 4, 2): "0c9ab00bc99a240f189365842a2bc0be7dc420c31f7507c10092b1e40e1c3aa8",
    (5, 4, 3): "0be0f1144f010ccd61929c51d5f648be135adef241dd3eff68e1cd16ea6657f0",
    (4, 5, 2): "1ba1348d6bf84ecc1241d11ae287ce28e7b52afef2161b5589b9a627bd70053f",
    (4, 5, 3): "e8a0d9086c99e4a9a1b0b78d66aa38ee79cefada9fed7742c57fbc3adc6e91ca",
    (3, 6, 2): "674545bd754ceb8f2e2dbb93c36abb510fb2eb5acbfb29823966250f327c5299",
    (3, 6, 3): "f2fefcb637c5b71cdebf5b2376b0b2b0bd84a0803206cafdf9905419462f8e71",
    (3, 7, 2): "674545bd754ceb8f2e2dbb93c36abb510fb2eb5acbfb29823966250f327c5299",
    (3, 7, 3): "4d769d9076d087ff8c6e7266cad412a3e5e7eaf872ff2d5c2186c9ffea86fd51",
    (3, 8, 2): "674545bd754ceb8f2e2dbb93c36abb510fb2eb5acbfb29823966250f327c5299",
    (3, 8, 3): "46913962473f99c6edec7ddc648b6cd1e3c6ae289d434a793f00f72869771f9d",
    (6, 4, 2): "cf6a6027846c805df82398fcc26ca4d89c897a95c07713fe2521dc80cce5883e",
    (6, 4, 3): "591fc53b9468b36337b91aac501a02edda675a15c815782a9fd4b00713ea4982",
    (4, 6, 2): "aea58d4baacc33c1e5d6614475eb0d395c21792ada27daa821607728d46c6528",
    (4, 6, 3): "cf30d130be52a512d71dab23ed7fc597a0aebcc6aecc952ba991c2cdabfa0335",
    (5, 5, 2): "a537756226749c777b7fdf820c420693add83588115e4df59371b1207c2ab0c8",
    (5, 5, 3): "f69798dc5aa1c092e8c424ba31a874a0722415059de12535a3409db910a75cb8",
    (3, 12, 2): "674545bd754ceb8f2e2dbb93c36abb510fb2eb5acbfb29823966250f327c5299",
    (3, 12, 3): "46913962473f99c6edec7ddc648b6cd1e3c6ae289d434a793f00f72869771f9d",
}

# sha256 of json.dumps(map_to_json(...)) of the degree-p triangulation balls
# built ring by ring before the combinatorial growth, keyed by (p, layers)
TRIANGULATION_JSON_DIGESTS = {
    (6, 1): "3076b4f43da078d1fd73dcdefa2e3c073dda7f8525e300dc188d49b816e8880f",
    (6, 2): "02f39e023eeeb6d4b643ed788f44e490a5a037a96b65ee437304f70587ae3e25",
    (6, 3): "453405fdb077f938737f6b6ea014e07cc7f99ef3c7058674ca471c3a5802e8c2",
    (6, 4): "5d07a68ba56ee7ba72d6c35259781d1ed73413fa13faade61e1a0f7697b6988d",
    (7, 1): "b4d38610e6a6c455327d5fe82b3902df9bad29c77aa7eee50257c9083813c8ac",
    (7, 2): "2741ec98d382c27564acd5d3e9f6fb379bc1769b667306597e7dcb046f046e5a",
    (7, 3): "7be8d64069a53e6df523193bc25c216181e06da45a41a3aa10285abd3e20d7f4",
    (7, 4): "c8b6f0fef5e1031c72f6f8211b1c1c7c1020c5ebd709f7d2fb1b6fc33b32e806",
    (8, 1): "6478971302cbfd1111321ac93b96a26a7f452982ba2e8047c003e1e633a4319c",
    (8, 2): "c5b5007f711304ef307d02e6001eb78381e0c26f5569bd8a963b888e20821203",
    (8, 3): "4c861752157c08deecc26bcee605653f3e4859a9bc5bc91a9c84e83f9af6fccb",
    (8, 4): "7ba5c080f1d16a528352900800b9a83d51d6caa6b5bb4e8e0f13ede7149a8719",
}


class TestBuildMap:
    def test_triangle_counts(self):
        m = build_map(TRIANGLE)
        assert m.n_vertices == 3
        assert m.n_darts == 6

    def test_k4_valid(self):
        m = build_map(K4)
        assert m.n_vertices == 4
        assert m.n_edges == 6
        assert np.all(np.sort(m.neighbors(0)) == [1, 2, 3])

    def test_unmatched_reversal_rejected(self):
        with pytest.raises(ValueError, match="dangling"):
            build_map([[1, 2], [0], [0, 1]])  # 2 lists 1 but 1 omits 2

    def test_nonpositive_conductance_rejected(self):
        with pytest.raises(ValueError):
            build_map(TRIANGLE, conductances=[(0, 1, 0.0), (1, 2, 1.0), (2, 0, 1.0)])

    def test_disconnected_rejected(self):
        two = [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]]
        with pytest.raises(ValueError, match="connected"):
            build_map(two)

    def test_conductances_symmetric(self):
        m = build_map(TRIANGLE, conductances=[(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)])
        assert np.all(m.conductance[::2] == m.conductance[1::2])
        assert sorted(m.conductance[::2]) == [2.0, 3.0, 4.0]

    def test_rotation_order_preserved(self):
        m = build_map(K4)
        for v, rot in enumerate(K4):
            assert m.target[m.vertex_darts(v)].tolist() == rot

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(ValueError, match="vertex 0 lists out-of-range neighbor 5"):
            build_map([[1, 5], [0]])

    def test_odd_loop_count_rejected(self):
        with pytest.raises(ValueError, match="odd loop count at vertex 0"):
            build_map([[0, 1], [0]])

    def test_vertex_without_darts_rejected(self):
        with pytest.raises(ValueError, match="vertex 2 has no darts"):
            build_map([[1], [0], []])

    def test_non_integer_neighbor_rejected(self):
        with pytest.raises(ValueError, match="vertex 0 lists non-integer neighbor 3.6"):
            build_map([[1, 2, 3.6], [0, 3, 2], [0, 1, 3], [0, 2, 1]])

    def test_rotation_not_a_list_rejected(self):
        with pytest.raises(ValueError, match="rotation of vertex 0 is not a list"):
            build_map([1, [0]])

    @pytest.mark.parametrize("entry", [[0, 1], [0, 1, "x"], [0.5, 1, 2.0], 7])
    def test_malformed_conductance_rejected(self, entry):
        triples = [(1, 2, 3.0), entry]
        with pytest.raises(ValueError, match=r"conductance entry 1 .* not a \(u, v, c\) triple"):
            build_map(TRIANGLE, conductances=triples)

    @pytest.mark.parametrize("entry", [(0, 7, 2.0), (-1, 2, 2.0), (0, 0, 2.0)])
    def test_conductance_of_no_edge_rejected(self, entry):
        with pytest.raises(ValueError, match=r"conductance entry 1 .* names no edge of the map"):
            build_map(TRIANGLE, conductances=[(1, 2, 3.0), entry])

    def test_later_conductance_entry_wins(self):
        m = build_map(TRIANGLE, conductances=[(0, 1, 2.0), (2, 0, 3.0), (1, 0, 5.0)])
        c = dict(zip(zip(m.origin.tolist(), m.target.tolist()), m.conductance))
        assert (c[0, 1], c[1, 0], c[0, 2], c[1, 2]) == (5.0, 5.0, 3.0, 1.0)


class TestPlanarMapInput:
    def test_rotation_not_a_permutation(self):
        with pytest.raises(ValueError, match="not a permutation of the darts"):
            PlanarMap(rotation=[1, 1, 3, 2], offsets=[0, 2, 4])

    @pytest.mark.parametrize("offsets", [[0, 1], [1, 2], [0, 3, 2], [0]])
    def test_offsets_must_cover_the_darts(self, offsets):
        with pytest.raises(ValueError, match="offsets must rise from 0 to the dart count"):
            PlanarMap(rotation=[0, 1], offsets=offsets)

    @pytest.mark.parametrize("rotation, offsets, name", [
        ([0.7, 1.2], [0, 1, 2], "rotation"),
        ([0, 1], [0.0, 1.0, 2.0], "offsets"),
        (np.array([True, False]), [0, 1, 2], "rotation"),
    ])
    def test_non_integer_arrays_rejected(self, rotation, offsets, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer array"):
            PlanarMap(rotation=rotation, offsets=offsets)

    def test_odd_dart_count(self):
        with pytest.raises(ValueError, match="equal, even length"):
            PlanarMap(rotation=[0, 1, 2], offsets=[0, 3])

    def test_asymmetric_conductance(self):
        with pytest.raises(ValueError, match="differs between the two darts"):
            PlanarMap(rotation=[0, 1], offsets=[0, 1, 2], conductance=[1.0, 2.0])


def numbering_digest(pmap):
    """sha256 of the map's JSON together with its face numbering."""
    doc = {"map": map_to_json(pmap), "face_of": trace_faces(pmap).face_of.tolist()}
    return sha256(json.dumps(doc))


# numbering_digest of maps whose vertex, dart and face ids downstream
# artifacts depend on; the tilings are otherwise pinned only up to relabeling
NUMBERED_MAPS = {
    "tiling544": lambda: generate_tiling(5, 4, 4),
    "tiling454": lambda: generate_tiling(4, 5, 4),
    "tiling643": lambda: generate_tiling(6, 4, 3),
    "ball5": lambda: truncate(generate_tiling(7, 3, 6), 0, 5).graph,
    "dual733": lambda: dual_map(generate_tiling(7, 3, 3)),
    "delaunay100": lambda: boundary_truncation(build_map(
        delaunay_rotations(np.random.default_rng(0).random((100, 2))))).graph,
}
NUMBERING_DIGESTS = {
    "tiling544": "dcbb5309dd0a9e8dd230a64d59beae8161088d8ff1bfb1030ce0456d34ae39ea",
    "tiling454": "646e0503e7e1544f0c80d72858f763637dea20630be2ce16c179610146ea4a84",
    "tiling643": "8bab5bb823bb3dd25eb34c0a13534888543b8f275edf48ff97e95f0ff9dea981",
    "ball5": "bb3a639547556b7811f491e19efcc1e989daff2eed1ed0162c7607782bfa4977",
    "dual733": "e67a3f849d92cd82ecaf5757ecdac10af88972a3eb7a2c12190195910c0c0141",
    "delaunay100": "bed03ea6629e2eea46c98f948f9912601b506ba3f9197b72cf0d354213b3a638",
}


@pytest.mark.parametrize("name", sorted(NUMBERING_DIGESTS))
def test_numbering_is_pinned(name):
    assert numbering_digest(NUMBERED_MAPS[name]()) == NUMBERING_DIGESTS[name]


class TestFacesAndDual:
    def test_k4_faces(self):
        m = build_map(K4)
        f = trace_faces(m)
        assert f.n_faces == 4
        assert np.all(f.degrees == 3)

    def test_triangle_faces(self):
        f = trace_faces(build_map(TRIANGLE))
        assert f.n_faces == 2

    def test_grid_face_count(self):
        # 3x3 squares plus the outer face, counted by hand
        m = generate_grid(4, 4)
        f = trace_faces(m)
        assert f.n_faces == 10
        assert euler_characteristic(m, f) == 2

    def test_face_degree_sum(self):
        for m in (build_map(K4), generate_grid(4, 3), generate_tiling(7, 3, 2)):
            f = trace_faces(m)
            assert int(f.degrees.sum()) == m.n_darts
            assert int(m.degrees.sum()) == m.n_darts

    def test_k4_self_dual(self):
        m = build_map(K4)
        d = dual_map(m)
        assert canonical_encoding(d) == canonical_encoding(m)

    def test_triangle_dual_is_double_banana(self):
        d = dual_map(build_map(TRIANGLE))
        assert d.n_vertices == 2
        assert d.n_edges == 3
        assert np.all(d.degrees == 3)

    def test_cube_dual_is_octahedron(self):
        m = build_map(CUBE)
        assert trace_faces(m).n_faces == 6
        d = dual_map(m)
        assert d.n_vertices == 6
        assert np.all(d.degrees == 4)
        fd = trace_faces(d)
        assert fd.n_faces == 8
        assert np.all(fd.degrees == 3)
        assert is_polyhedral(d)

    def test_double_dual_isomorphic(self):
        for m in (build_map(K4), build_map(CUBE), generate_tiling(7, 3, 2)):
            dd = dual_map(dual_map(m))
            assert canonical_encoding(dd) == canonical_encoding(m)

    def test_dual_conductances_reciprocal(self):
        m = build_map(TRIANGLE, conductances=[(0, 1, 2.0), (1, 2, 4.0), (2, 0, 5.0)])
        d = dual_map(m)
        assert sorted(d.conductance[::2]) == sorted(1.0 / m.conductance[::2])


class TestPolyhedral:
    def test_k4_true(self):
        assert is_polyhedral(build_map(K4))

    def test_triangle_false(self):
        assert not is_polyhedral(build_map(TRIANGLE))

    def test_doubled_edge_false(self):
        # K4 with one edge doubled (listed twice, consistently, on both sides)
        doubled = [[1, 1, 2, 3], [0, 0, 3, 2], [0, 1, 3], [0, 2, 1]]
        assert not is_polyhedral(build_map(doubled))

    def test_simple_defect(self):
        doubled = [[1, 1, 2, 3], [0, 0, 3, 2], [0, 1, 3], [0, 2, 1]]
        assert build_map(doubled).simple_defect() == "a doubled edge"
        assert build_map(K4).simple_defect() is None
        # darts 0 and 1 both leave vertex 0: a loop, beside the edge 0-1
        loop = PlanarMap(rotation=[0, 1, 2, 3], offsets=[0, 3, 4])
        assert loop.simple_defect() == "a loop"

    def test_matches_brute_force_on_small_suite(self):
        suite = [
            build_map(TRIANGLE),
            build_map(K4),
            build_map(CUBE),
            build_map([[1], [0, 2], [1]]),                      # path
            build_map([[1, 4], [2, 0], [3, 1], [4, 2], [0, 3]]),  # 5-cycle
            generate_grid(3, 3),
            generate_grid(4, 3),
            generate_tiling(7, 3, 1),
            build_map([[1, 3, 2], [2, 4, 0], [0, 5, 1],
                       [4, 5, 0], [5, 3, 1], [3, 4, 2]]),      # triangular prism
            dual_map(build_map(CUBE)),                          # octahedron
            build_map([[1, 2, 3, 4, 5, 6], [0, 3, 2], [0, 1, 3], [0, 2, 1],
                       [0, 6, 5], [0, 4, 6], [0, 5, 4]]),       # two K4 sharing 0
        ]
        for m in suite:
            assert m.n_vertices <= 12
            assert is_polyhedral(m) == brute_force_polyhedral(m), m

    def test_matches_brute_force_on_random_maps(self):
        # Delaunay triangulations of 5-11 points with 0-3 edges deleted
        verdicts = []
        for seed in range(600):
            m = random_delaunay_map(5 + seed % 7, seed % 4, seed)
            if m is None:
                continue
            verdicts.append(is_polyhedral(m))
            assert verdicts[-1] == brute_force_polyhedral(m), seed
        assert len(verdicts) >= 500
        assert 100 <= sum(verdicts) <= len(verdicts) - 100


class TestTilings:
    def test_single_flower(self):
        m = generate_tiling(7, 3, 1)
        assert m.n_vertices == 8
        f = trace_faces(m)
        assert sorted(f.degrees) == [3] * 7 + [7]

    def test_triangular_lattice_interior_degrees(self):
        m = generate_tiling(6, 3, 3)
        dist = _bfs_distances(m, 0)
        assert np.all(m.degrees[dist <= 2] == 6)

    def test_matches_geometric_construction(self):
        wrong = [key for key, digest in GEOMETRIC_BALL_DIGESTS.items()
                 if sha256(repr(canonical_encoding(generate_tiling(*key)))) != digest]
        assert wrong == []

    def test_triangulations_match_ring_growth(self):
        wrong = [key for key, digest in TRIANGULATION_JSON_DIGESTS.items()
                 if sha256(json.dumps(map_to_json(generate_tiling(key[0], 3, key[1]))))
                 != digest]
        assert wrong == []
        assert generate_tiling(7, 3, 4).n_vertices == 232

    def test_deep_ball_of_squares(self):
        # the geometric construction ran out of its face budget here
        m = generate_tiling(6, 4, 5)
        assert (m.n_vertices, m.n_edges) == (1711, 2166)
        assert euler_characteristic(m) == 2

    @pytest.mark.parametrize("p,q", [(6, 3), (7, 3), (8, 3), (4, 4), (5, 4), (6, 4),
                                     (8, 4), (4, 5), (5, 5), (3, 6), (4, 6), (3, 7),
                                     (3, 8), (4, 8), (3, 12)])
    def test_ball_structure(self, p, q):
        smaller = None
        for layers in range(1, 6):
            m = generate_tiling(p, q, layers)
            f = trace_faces(m)
            dist = _bfs_distances(m, 0)
            assert dist.max() == layers
            assert np.all(m.degrees[dist < layers] == p)
            assert np.all(np.sort(f.degrees)[:-1] == q)
            assert euler_characteristic(m, f) == 2
            if smaller is not None:
                # the smaller ball is this one's induced ball, ids included
                sub, _ = induce_submap(m, dist < layers)
                assert cyclic_rotations(sub) == cyclic_rotations(smaller)
                # and its balls are cut from it exactly, rotations unshifted,
                # so a ball of radius r needs only r layers grown
                for r in range(1, layers):
                    a, b = truncate(m, 0, r), truncate(smaller, 0, r)
                    assert_same_map(a.graph, b.graph)
                    assert np.array_equal(a.boundary, b.boundary)
                    assert a.root == b.root
            smaller = m

    def test_quad_tilings(self):
        m = generate_tiling(4, 4, 3)
        assert m.n_vertices == 25  # diamond |x|+|y| <= 3 in the square lattice
        h = generate_tiling(5, 4, 2)
        f = trace_faces(h)
        assert euler_characteristic(h, f) == 2
        bounded = sorted(f.degrees)[:-1]
        assert set(bounded) == {4}

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_tiling(3, 3, 2)  # spherical
        with pytest.raises(ValueError):
            generate_tiling(2, 6, 2)
        with pytest.raises(ValueError):
            generate_tiling(7, 3, 0)

    @pytest.mark.parametrize("p", range(3, 10))
    def test_matches_list_reference(self, p):
        # layer 5 only while the balls stay small (at most 4675 vertices);
        # the deeper (7,3) and (8,3) balls below cover large ones
        for q in range(3, 10):
            if 1.0 / p + 1.0 / q - 0.5 > 1e-12:
                continue
            for layers in range(1, 6 if p <= 6 else 5):
                assert_same_map(generate_tiling(p, q, layers),
                                generate_tiling_reference(p, q, layers))

    @pytest.mark.parametrize("p,q,layers", [(7, 3, 7), (8, 3, 6)])
    def test_deep_balls_match_list_reference(self, p, q, layers):
        assert_same_map(generate_tiling(p, q, layers),
                        generate_tiling_reference(p, q, layers))

    @pytest.mark.parametrize("nx,ny", [(2, 2), (3, 5), (21, 13), (41, 41)])
    def test_grid_matches_list_reference(self, nx, ny):
        assert_same_map(generate_grid(nx, ny), generate_grid_reference(nx, ny))

    @pytest.mark.parametrize("args,name", [((7, 3, 2.5), "layers"), ((7.0, 3, 2), "p"),
                                           ((7, "3", 2), "q"), ((7, 3, True), "layers")])
    def test_non_integer_tiling_sizes_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            generate_tiling(*args)

    @pytest.mark.parametrize("args,name", [((3.0, 3), "nx"), ((3, 2.5), "ny"),
                                           ((True, 3), "nx"), ((3, "3"), "ny")])
    def test_non_integer_grid_sizes_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            generate_grid(*args)

    def test_numpy_integer_sizes_accepted(self):
        assert_same_map(generate_tiling(np.int64(7), np.int32(3), np.uint8(2)),
                        generate_tiling(7, 3, 2))
        assert_same_map(generate_grid(np.int64(3), np.int16(4)), generate_grid(3, 4))

    def test_grid_shape(self):
        m = generate_grid(5, 3)
        assert m.n_vertices == 15
        assert m.n_edges == 5 * 2 + 4 * 3  # horizontal + vertical
        corner_degrees = m.degrees[[0, 4, 10, 14]]
        assert np.all(corner_degrees == 2)

    def test_grid_over_the_size_budget_is_refused(self):
        with pytest.raises(ValueError, match="a 4000x3000 grid patch has 12000000 "
                                             "vertices; the size budget is 8388608"):
            generate_grid(4000, 3000)


class TestTruncation:
    def test_flower_truncation(self):
        t = truncate(generate_tiling(6, 3, 3), root=0, radius=1)
        assert t.n_vertices == 7
        assert t.boundary.size == 6
        assert t.interior.tolist() == [t.root]

    def test_radius_zero_rejected(self):
        with pytest.raises(ValueError):
            truncate(generate_tiling(6, 3, 3), root=0, radius=0)

    def test_radius_beyond_reach_rejected(self):
        with pytest.raises(ValueError):
            truncate(generate_tiling(6, 3, 2), root=0, radius=5)

    @pytest.mark.parametrize("root", [999, -1])
    @pytest.mark.parametrize("cut", [
        lambda pmap, root: truncate(pmap, root=root, radius=2),
        lambda pmap, root: boundary_truncation(pmap, root=root),
    ], ids=["truncate", "boundary_truncation"])
    def test_root_outside_the_map_rejected(self, cut, root):
        parent = generate_tiling(7, 3, 3)
        with pytest.raises(ValueError, match=rf"root {root} is not a vertex "
                           rf"of the map, whose {parent.n_vertices} vertices"):
            cut(parent, root)

    @pytest.mark.parametrize("given, cause", [
        ({"boundary_ids": [0.5]}, "boundary_ids must be an integer array, not float64"),
        ({"boundary_ids": [1, 7]}, "boundary_ids must hold integers from 0 to 6, got 7"),
        ({"root": 1.0}, "root must be an integer, got 1.0"),
        ({"root": -1}, "root -1 is not a vertex of the map"),
        ({"radius": 0}, "radius must be an integer of at least 1, got 0"),
        ({"radius": True}, "radius must be an integer of at least 1, got True"),
    ], ids=["float-boundary", "far-boundary", "float-root", "negative-root", "radius-0",
            "bool-radius"])
    def test_bad_truncation_argument_names_it(self, given, cause):
        flower = generate_tiling(6, 3, 1)
        base = {"boundary_ids": range(1, 7), "root": np.int64(0), "radius": np.int64(1)}
        assert Truncation(flower, **base).root == 0
        with pytest.raises(ValueError, match="^" + re.escape(cause)):
            Truncation(flower, **{**base, **given})

    def test_distances_from_several_sources(self):
        m = generate_grid(5, 4)
        corners = [0, 4, 15, 19]
        each = [_bfs_distances(m, c) for c in corners]
        assert np.array_equal(_bfs_distances(m, corners),
                              np.min(each, axis=0))

    def test_interior_is_smaller_ball(self):
        parent = generate_tiling(7, 3, 6)
        t = truncate(parent, root=0, radius=3)
        dist = _bfs_distances(parent, 0)
        ball2 = np.flatnonzero(dist <= 2)
        assert np.array_equal(np.sort(t.parent_vertices[t.interior]), ball2)
        assert np.array_equal(t.parent_vertices[t.is_boundary],
                              np.flatnonzero(dist == 3))

    def test_boundary_is_outer_face_rim(self):
        t = truncate(generate_tiling(7, 3, 4), root=0, radius=2)
        rim = np.unique(t.faces.vertices(t.graph, t.outer_face))
        assert np.array_equal(rim, t.boundary)

    @pytest.mark.parametrize("build", [
        lambda: truncate(generate_tiling(7, 3, 4), 0, 3),
        lambda: boundary_truncation(generate_grid(6, 5)),
    ], ids=["ball3", "grid6x5"])
    def test_dart_tree(self, build):
        t = build()
        g = t.graph
        tree = t.dart_tree
        order, parent, levels = tree.order, tree.parent, tree.levels
        assert order[0] == g.vertex_darts(t.root)[0] and parent[0] == order[0]
        assert np.unique(order).size == order.size == g.n_darts
        level = np.repeat(np.arange(levels.size - 1), np.diff(levels))
        position = np.empty(g.n_darts, dtype=np.int64)
        position[order] = np.arange(order.size)
        assert np.array_equal(level[position[parent[1:]]], level[1:] - 1)
        bounded = t.faces.face_of != t.outer_face
        child, par = order[1:], parent[1:]
        rev, sign, turn = tree.reverse[1:], tree.turn_sign[1:], tree.turn_dart[1:]
        assert np.array_equal(rev, child == par ^ 1) and not tree.reverse[0]
        back = ~rev & (sign == -1)
        assert np.array_equal(child[back], g.prv[par[back]])
        assert np.all(bounded[par[back]]) and np.array_equal(turn[back], par[back])
        ahead = ~rev & (sign == 1)
        assert back.any() and ahead.any() and rev.any()
        assert np.array_equal(child[ahead], g.nxt[par[ahead]])
        assert np.all(bounded[child[ahead]]) and np.array_equal(turn[ahead], child[ahead])
        assert np.array_equal(g.origin[tree.vertex_dart], np.arange(g.n_vertices))
        bf = t.bounded_faces
        assert np.array_equal(t.faces.face_of[tree.face_dart[bf]], bf)
        assert tree.face_dart[t.outer_face] == -1
        assert t.dart_tree is tree

    def test_grid_boundary_truncation(self):
        t = boundary_truncation(generate_grid(5, 5))
        assert t.boundary.size == 16
        assert t.interior.size == 9
        assert t.root == 12  # center of the patch

    def test_rim_that_splits_the_interior_is_bad_input(self):
        # a connected interior is a precondition, so this is a ValueError
        # (user input), not an InvariantViolation
        with pytest.raises(ValueError, match="not connected.*vertex 5 off "
                                             "from the root 1"):
            boundary_truncation(build_map(TWO_WHEELS))


class TestSerialization:
    @pytest.mark.parametrize("build", [
        lambda: build_map([[1], [0, 2], [1]]),                      # degree 1
        lambda: PlanarMap(rotation=[0, 1, 2, 3], offsets=[0, 3, 4]),  # a loop
        lambda: build_map([[1, 1, 2, 3], [0, 0, 3, 2], [0, 1, 3], [0, 2, 1]]),
        lambda: generate_grid(4, 3),
        lambda: generate_tiling(5, 4, 2),
    ], ids=["path", "loop", "doubled-K4", "grid", "tiling542"])
    def test_canonical_encoding_ignores_labels(self, build):
        m = build()
        for seed in range(3):
            assert canonical_encoding(relabeled(m, seed)) == canonical_encoding(m)

    def test_round_trip(self):
        m = generate_tiling(7, 3, 2)
        again = load_map_json(io.StringIO(json.dumps(map_to_json(m))))
        assert canonical_encoding(again) == canonical_encoding(m)

    def test_conductances_survive(self):
        m = build_map(K4, conductances=[(0, 1, 2.5), (0, 2, 1.0), (0, 3, 1.0),
                                        (1, 2, 1.0), (1, 3, 1.0), (2, 3, 0.5)])
        again = load_map_json(map_to_json(m))
        assert sorted(again.conductance[::2]) == sorted(m.conductance[::2])

    def test_bad_payload_rejected(self):
        with pytest.raises((ValueError, KeyError)):
            load_map_json({"vertices": 3})

    @pytest.mark.parametrize("n, genus", [(5, 2), (4, 1)], ids=["K5", "K4"])
    def test_non_planar_rotations_rejected(self, n, genus):
        # neighbours in ascending order: K5 has V - E + F = -2, K4 has 0
        rotations = [[u for u in range(n) if u != v] for v in range(n)]
        with pytest.raises(ValueError, match=f"not planar.*genus {genus}"):
            load_map_json({"vertices": n, "rotations": rotations})


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 30), n_double=st.integers(0, 4), n_loops=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_multigraph_matches_loop_reference(n, n_double, n_loops, seed):
    rotations = delaunay_multigraph(n, n_double, n_loops, seed)
    m = build_map(rotations)
    rotation, origin, nxt = build_map_reference(rotations)
    assert np.array_equal(m.rotation, rotation)
    assert np.array_equal(m.origin, origin)
    assert np.array_equal(m.nxt, nxt)
    faces = trace_faces(m)
    face_of, orbits = trace_faces_reference(nxt)
    assert np.array_equal(faces.face_of, face_of)
    assert np.array_equal(faces.order, np.concatenate(orbits))
    assert np.array_equal(faces.degrees, [len(orbit) for orbit in orbits])


@settings(max_examples=20, deadline=None)
@given(nx=st.integers(2, 6), ny=st.integers(2, 6))
def test_grid_euler_property(nx, ny):
    m = generate_grid(nx, ny)
    f = trace_faces(m)
    assert euler_characteristic(m, f) == 2
    assert int(f.degrees.sum()) == m.n_darts


@settings(max_examples=12, deadline=None)
@given(params=st.sampled_from([(6, 3, 2), (7, 3, 2), (8, 3, 2), (4, 4, 2),
                               (5, 4, 2), (4, 5, 2), (3, 6, 3)]))
def test_tiling_euler_property(params):
    p, q, layers = params
    m = generate_tiling(p, q, layers)
    f = trace_faces(m)
    assert euler_characteristic(m, f) == 2
    assert int(m.degrees.sum()) == m.n_darts
    assert np.all(m.degrees <= p)
