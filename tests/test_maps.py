"""Combinatorial map layer: construction, faces, duals, polyhedrality,
tilings, truncations, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublepack.maps import (
    MapData,
    PlanarMap,
    build_map,
    boundary_truncation,
    canonical_encoding,
    dual_map,
    euler_characteristic,
    is_polyhedral,
    load_map_json,
    map_data,
    map_to_json,
    trace_faces,
    truncate,
)
from doublepack.tilings import generate_grid, generate_tiling

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
        loop = PlanarMap(origin=[0, 0, 0, 1], nxt=[1, 2, 0, 3])
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
        ]
        for m in suite:
            assert m.n_vertices <= 12
            assert is_polyhedral(m) == brute_force_polyhedral(m), m


class TestTilings:
    def test_single_flower(self):
        m = generate_tiling(7, 3, 1)
        assert m.n_vertices == 8
        f = trace_faces(m)
        assert sorted(f.degrees) == [3] * 7 + [7]

    def test_triangular_lattice_interior_degrees(self):
        m = generate_tiling(6, 3, 3)
        from doublepack.maps import _bfs_distances

        dist = _bfs_distances(m.neighbor_lists, 0)
        assert np.all(m.degrees[dist <= 2] == 6)

    def test_hyperbolic_ball_matches_independent_generator(self):
        # layered growth vs geometric (half-turn corona) regeneration
        from doublepack.tilings import _geometric_ball, _triangulation_ball

        a = _triangulation_ball(7, 3)
        b = _geometric_ball(7, 3, 3)
        assert canonical_encoding(a) == canonical_encoding(b)
        big = _triangulation_ball(7, 4)
        assert big.n_vertices == 232
        assert big.n_vertices == _geometric_ball(7, 3, 4).n_vertices

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

    def test_grid_shape(self):
        m = generate_grid(5, 3)
        assert m.n_vertices == 15
        assert m.n_edges == 5 * 2 + 4 * 3  # horizontal + vertical
        corner_degrees = m.degrees[[0, 4, 10, 14]]
        assert np.all(corner_degrees == 2)


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

    def test_interior_is_smaller_ball(self):
        from doublepack.maps import _bfs_distances

        parent = generate_tiling(7, 3, 6)
        t = truncate(parent, root=0, radius=3)
        dist = _bfs_distances(parent.neighbor_lists, 0)
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


class TestSerialization:
    def test_round_trip(self):
        m = generate_tiling(7, 3, 2)
        again = load_map_json(json.dumps(map_to_json(m)))
        assert canonical_encoding(again) == canonical_encoding(m)

    def test_conductances_survive(self):
        m = build_map(K4, conductances=[(0, 1, 2.5), (0, 2, 1.0), (0, 3, 1.0),
                                        (1, 2, 1.0), (1, 3, 1.0), (2, 3, 0.5)])
        again = load_map_json(map_to_json(m))
        assert sorted(again.conductance[::2]) == sorted(m.conductance[::2])

    def test_bad_payload_rejected(self):
        with pytest.raises((ValueError, KeyError)):
            load_map_json({"vertices": 3})

    def test_map_data(self):
        m = generate_grid(4, 4)
        d = map_data(m)
        assert d == MapData(4, 12, 1.0, 1.0)
        assert map_data(m, skip_face=int(np.argmax(trace_faces(m).degrees))).max_codegree == 4


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
