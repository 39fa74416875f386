"""Generators for regular tilings and lattice patches.

``generate_tiling(p, q, layers)`` returns the combinatorial graph-distance
ball of radius ``layers`` around a root vertex of the regular tiling whose
vertices have degree p and whose faces are q-gons.  One growth rule builds
every Euclidean and hyperbolic pair: faces are attached one at a time to the
rim of a growing disc, completing vertices in breadth-first order.
Spherical parameter pairs are rejected.
"""

from __future__ import annotations

from .linalg import _SIZE_BUDGET
from .maps import PlanarMap, build_map

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
    one step closer to the root.
    """
    if p < 3 or q < 3:
        raise ValueError("p and q must be at least 3")
    if layers < 1:
        raise ValueError("layers must be at least 1")
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
            # rim vertices of the new face, in the outer face's direction
            rim = [nbrs[v][-1], v]
            while len(nbrs[rim[0]]) == p:
                rim.insert(0, nbrs[rim[0]][-1])
            while len(nbrs[rim[-1]]) == p:
                rim.append(nbrs[rim[-1]][0])
            for x in rim[1:-1]:
                interior[x] = True
            # the face closes from rim[-1] through its new vertices to rim[0]
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


# ---------------------------------------------------------------------------
# rectangular lattice patches
# ---------------------------------------------------------------------------

def generate_grid(nx: int, ny: int) -> PlanarMap:
    """nx-by-ny patch of the square lattice (vertex (i, j) -> id j*nx + i),
    neighbors in counterclockwise order east, north, west, south.  A patch
    of more than ``_SIZE_BUDGET`` vertices raises before any allocation."""
    if nx < 2 or ny < 2:
        raise ValueError("grid patch needs at least 2 vertices per side")
    if nx * ny > _SIZE_BUDGET:
        raise ValueError(f"a {nx}x{ny} grid patch has {nx * ny} vertices; "
                         f"the size budget is {_SIZE_BUDGET}")
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
