"""Generators for regular tilings and lattice patches.

``generate_tiling(p, q, layers)`` returns the combinatorial graph-distance
ball of radius ``layers`` around a root vertex of the regular tiling whose
vertices have degree p and whose faces are q-gons.  One growth rule builds
every Euclidean and hyperbolic pair: faces are attached one at a time to the
rim of a growing disc, completing vertices in breadth-first order.  The
kept vertices are then renumbered and their rotations turned by whole-array
steps on one flat neighbor array.  Spherical parameter pairs are rejected.
``generate_grid`` writes its lattice patch's neighbor table by index
arithmetic.  Both hand their flat neighbor arrays to ``maps``'s one pairing
core, the one ``build_map`` uses, without building per-vertex lists for it.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import integer
from .linalg import _SIZE_BUDGET
from .maps import PlanarMap, _pair_half_edges

__all__ = ["generate_tiling", "generate_grid"]


def generate_tiling(p: int, q: int, layers: int) -> PlanarMap:
    """Ball of radius ``layers`` around vertex 0 of the tiling with vertex
    degree p and q-gonal faces, grown face by face.

    The partial tiling is always a disc.  ``nbrs[v]`` lists the neighbors of
    ``v`` counterclockwise; for a vertex on the disc's rim the first and last
    entries are its rim neighbors, and the outer face lies between the last
    and the first.  Starting from one q-gon at the root, vertices are
    completed in breadth-first order while their distance is below
    ``layers``: each new face goes into the vertex's outer wedge, next to its
    last neighbor.  A face absorbs the consecutive rim vertices on either
    side that already have degree p, which become interior; with k rim
    vertices on it, it adds q - k new vertices, or a chord when k = q.  A
    completed vertex has its whole neighborhood, so the breadth-first
    distances are exact, and the vertices never reached lie beyond the ball.

    Each non-root rotation starts one entry before its block of neighbors
    one step closer to the root.  The lists are then flattened once, and
    whole-array steps find each block (a segment minimum), rotate every list
    (one scatter), drop the vertices beyond the ball and renumber the rest
    in creation order; the flat neighbor array goes straight to the pairing
    core that ``build_map`` uses.

    p and q must be integers of at least 3 and ``layers`` one of at least 1
    (``errors.integer``); anything else raises ``ValueError`` naming the
    argument before any growth.
    """
    p, q, layers = integer("p", p, 3), integer("q", q, 3), integer("layers", layers, 1)
    curvature = 1.0 / p + 1.0 / q - 0.5
    if curvature > 1e-12:
        raise ValueError(f"({p},{q}) is spherical; only Euclidean and hyperbolic "
                         "tilings are generated")

    nbrs = [[1, q - 1]] + [[(j + 1) % q, j - 1] for j in range(1, q)]
    interior = [False] * q
    dist = [0] + [-1] * (q - 1)
    order = [0]
    for v in order:
        if dist[v] == layers:
            break
        while not interior[v]:
            # the new face's rim runs from a to b in the outer face's
            # direction; the k - 2 vertices between them become interior
            a, k = nbrs[v][-1], 2
            while len(nbrs[a]) == p:
                interior[a] = True
                a, k = nbrs[a][-1], k + 1
            b = v
            while len(nbrs[b]) == p:
                interior[b] = True
                b, k = nbrs[b][0], k + 1
            # the face closes from b through its new vertices, a path
            # n0, ..., n1 - 1, to a, or by a chord when there are none
            n0, n1 = len(nbrs), len(nbrs) + q - k
            if n1 > n0:
                nbrs.extend([x - 1, x + 1] for x in range(n0, n1))
                nbrs[n0][0], nbrs[-1][1] = b, a
                nbrs[b].append(n0)
                nbrs[a].insert(0, n1 - 1)
                interior.extend([False] * (n1 - n0))
                dist.extend([-1] * (n1 - n0))
            else:
                nbrs[b].append(a)
                nbrs[a].insert(0, b)
        for u in nbrs[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                order.append(u)

    n = len(nbrs)
    deg = np.fromiter(map(len, nbrs), np.int64, n)
    flat = np.fromiter(chain.from_iterable(nbrs), np.int64, int(deg.sum()))
    level = np.array(dist)
    owner = np.repeat(np.arange(n), deg)
    start = np.r_[0, np.cumsum(deg)[:-1]]
    local = np.arange(flat.size) - start[owner]
    # entry j opens the block one step closer to the root when it is that
    # close and entry j - 1 (cyclically) is not; a list starts one entry
    # before its first opener, or as it is when none opens (the root's
    # neighbors are all one step away from it, so it has none)
    up = level[flat] == level[owner] - 1
    opens = up & ~up[start[owner] + (local - 1) % deg[owner]]
    first = np.minimum.reduceat(np.where(opens, local, flat.size), start)
    shift = np.where(first < flat.size, first - 1, 0)
    rotated = np.empty_like(flat)
    rotated[start[owner] + (local - shift[owner]) % deg[owner]] = flat
    # drop the vertices beyond the ball and renumber the rest in order
    kept = level >= 0
    keep = kept[owner] & kept[rotated]
    return _pair_half_edges((np.cumsum(kept) - 1)[rotated[keep]],
                            np.bincount(owner[keep], minlength=n)[kept])


# ---------------------------------------------------------------------------
# rectangular lattice patches
# ---------------------------------------------------------------------------

def generate_grid(nx: int, ny: int) -> PlanarMap:
    """nx-by-ny patch of the square lattice (vertex (i, j) -> id j*nx + i),
    neighbors in counterclockwise order east, north, west, south.  A patch
    of more than ``_SIZE_BUDGET`` vertices, or a side that is not an
    integer of at least 2, raises before any allocation.

    The east/north/west/south table is written by index arithmetic, and the
    entries that leave the patch are masked out row by row."""
    nx, ny = integer("nx", nx, 2), integer("ny", ny, 2)
    if nx * ny > _SIZE_BUDGET:
        raise ValueError(f"a {nx}x{ny} grid patch has {nx * ny} vertices; "
                         f"the size budget is {_SIZE_BUDGET}")
    ids = np.arange(nx * ny)
    i, j = ids % nx, ids // nx
    table = ids[:, None] + np.array([1, nx, -1, -nx])
    inside = np.stack([i + 1 < nx, j + 1 < ny, i > 0, j > 0], axis=1)
    return _pair_half_edges(table[inside], inside.sum(axis=1))
