"""Generators for regular tilings and lattice patches.

``generate_tiling(p, q, layers)`` returns the combinatorial graph-distance
ball of radius ``layers`` around a root vertex of the regular tiling whose
vertices have degree p and whose faces are q-gons.  One growth rule builds
every Euclidean and hyperbolic pair: the ball grows from one q-gon a
breadth-first stage at a time, and each stage attaches, in whole-array
steps, every face that meets a vertex of that stage.  Spherical parameter
pairs are rejected.  ``generate_grid`` writes its lattice patch's neighbor
table by index arithmetic and hands it to ``maps``'s pairing core, the one
``build_map`` uses.
"""

from __future__ import annotations

import numpy as np

from .errors import integer
from .linalg import _SIZE_BUDGET
from .maps import PlanarMap, _number_darts, _pair_half_edges

__all__ = ["generate_tiling", "generate_grid"]

_FAR = 1 << 40          # processing rank of a vertex outside the current stage
_MID = 1 << 31          # list key of a vertex's own first entry


def generate_tiling(p: int, q: int, layers: int) -> PlanarMap:
    """Ball of radius ``layers`` around vertex 0 of the tiling with vertex
    degree p and q-gonal faces, grown a breadth-first stage at a time.

    The ball is numbered as a face-by-face growth numbers it.  That growth
    keeps a disc, started as one q-gon at the root, whose rim vertices list
    their neighbors counterclockwise from the one ahead of them on the rim
    (*forward*) to the one behind; it completes the vertices in breadth-first
    order, each attaching the faces its outer wedge lacks from the back, and
    numbers each face's new vertices from the face's forward end back.

    Here stage s completes all vertices at distance s at once.  A rim vertex
    of degree d lacks p - d edges (*spokes*) and p - d + 1 faces; a vertex
    of degree p lacks one face, which also holds its two rim neighbors.  So
    the missing faces and spokes alternate around the rim, and a face
    touches it at one vertex or along a run from a vertex of degree below p
    over vertices of degree p to the next such vertex.  The stage makes each
    face that holds one of its vertices, ordered by the first such vertex in
    breadth-first order and then counterclockwise around it, and numbers the
    new vertices by one cumulative sum: a face with k rim vertices adds the
    q - k - 2 between its spokes and each spoke end that no earlier face
    made (at k = q - 1 both spokes share their end, and a face whose
    vertices all exist closes with a chord).

    Each list is kept as records keyed by where they join it (front, the
    vertex's own two entries, back) and sorted when its vertex's stage ends;
    its unreached neighbors, in list order, join the next stage.  Each
    non-root list is then turned to start one entry before its block of
    neighbors one step closer to the root, the vertices never reached (they
    lie beyond the ball) are dropped, the rest keep their order, and each
    edge is numbered by the first of its two half-edges in the concatenated
    lists, as ``build_map`` numbers them.

    p and q must be integers of at least 3 and ``layers`` one of at least 1
    (``errors.integer``); anything else raises ``ValueError`` naming the
    argument before any growth.
    """
    p, q, layers = integer("p", p, 3), integer("q", q, 3), integer("layers", layers, 1)
    curvature = 1.0 / p + 1.0 / q - 0.5
    if curvature > 1e-12:
        raise ValueError(f"({p},{q}) is spherical; only Euclidean and hyperbolic "
                         "tilings are generated")
    return _assemble(*_grow(p, q, layers))


def _grow(p: int, q: int, layers: int):
    """The stages of ``generate_tiling``.  Returns the distance of every
    vertex (-1 beyond the ball), the kept vertices in stage order with
    their degrees, and their lists as one row of neighbors and one of
    half-edge ids (2e and 2e + 1 for edge e)."""
    j = np.arange(q)
    rim = j                                    # forward around the rim
    deg = np.full(q, 2)
    dist = np.full(q, -1)
    dist[0] = 0
    rank = np.full(q, _FAR)                    # breadth-first rank in its stage
    rank[0] = 0
    order = j[:1]                              # the current stage's vertices
    # list records, one column each: owner, neighbor, key, half-edge; vertex
    # j of the root q-gon lists j + 1 (edge j), then j - 1 (edge j - 1)
    back = (j - 1) % q
    pool = np.stack([j.repeat(2), np.stack(((j + 1) % q, back), 1).ravel(),
                     np.tile((_MID, _MID + 1), q), np.stack((2 * j, 2 * back + 1), 1).ravel()])
    n, n_faces, n_edges = q, 1, q
    stages, lists = [], []
    for s in range(layers):
        st = _Stage(p, q, rim, deg, rank, n)
        rec = st.records(n_faces, n_edges)
        n1, n_faces, n_edges = n + st.n_new, n_faces + st.n_made, n_edges + rec.shape[1] // 2
        grown = np.bincount(rec[0], minlength=n1)
        grown[:n] += deg
        deg = grown
        dist = np.concatenate((dist, np.full(st.n_new, -1)))
        rank = np.concatenate((rank, np.full(st.n_new, _FAR)))
        pool = np.concatenate((pool, rec), axis=1)
        del rec
        fin, pool = _complete(pool, dist, rank, s)
        stages.append(order)
        lists.append(fin)
        # the unreached neighbors of this stage's vertices, in list order,
        # are the next stage
        new = fin[0][dist[fin[0]] < 0]
        first = np.full(n1, new.size)
        np.minimum.at(first, new, np.arange(new.size))
        order = new[first[new] == np.arange(new.size)]
        dist[order] = s + 1
        rank[order] = np.arange(order.size)
        if s + 1 < layers:
            rim = st.next_rim()
        n = n1
    stages.append(order)
    lists.append(_complete(pool, dist, rank, layers)[0])
    kept = np.concatenate(stages)
    return dist, kept, deg[kept], np.concatenate(lists, axis=1)


def _complete(pool, dist, rank, s):
    """The lists of the vertices at distance s, whose records are all in
    ``pool``: rows of neighbors and half-edges, by rank and then key; and
    the records left in the pool."""
    done = dist[pool[0]] == s
    fin = pool.take(done.nonzero()[0], axis=1)
    rest = pool.take((~done).nonzero()[0], axis=1)
    return fin[1::2].take((rank[fin[0]] * (4 * _MID) + fin[2]).argsort(), axis=1), rest


class _Stage:
    """The faces one stage attaches outside the rim ``rim`` (vertex ids,
    forward order), given every vertex's degree and processing rank; the
    new vertices are numbered on from ``n``.

    Face j lies between spoke j and spoke j + 1 (cyclically); spoke j
    leaves the rim at position ``pos[j]`` and face j is a run face when
    spoke j is its vertex's last.  A face is made when it holds a vertex of
    this stage, at index ``made[j]`` in the stage's creation order (else -1)."""

    def __init__(self, p, q, rim, deg, rank, n):
        i0 = int(np.argmax(deg[rim] < p))        # start at a vertex that lacks a spoke
        self.rim = rim = np.concatenate((rim[i0:], rim[:i0]))
        spokes = p - deg[rim]
        at = spokes.nonzero()[0]
        c = spokes[at]
        self.last = last = c.cumsum() - 1        # each vertex's last spoke
        K = int(last[-1]) + 1
        self.pos = pos = at.repeat(c)
        self.prv = np.arange(-1, K - 1)
        nxt = np.arange(1, K + 1)
        nxt[-1] = 0
        after = np.concatenate((at[1:], at[:1]))  # the far end of each run face
        # a face is made by its first vertex in this stage, the faces of
        # one vertex in counterclockwise order: wedge 0 is the run face
        # behind it, wedge i the face after its i-th spoke
        rk = rank[rim] * (p + 1)
        key = rk[pos] + np.arange(1, K + 1) - (last + 1 - c).repeat(c)
        key[last] = np.minimum(key[last], np.minimum.reduceat(
            np.concatenate((rk[1:], rk[:1])), at))
        self.n_made = int((key < _FAR * (p + 1)).sum())
        self.by_made = by_made = key.argsort()[:self.n_made]
        made = np.full(K, -1)
        made[by_made] = np.arange(self.n_made)
        self.made = made
        late = np.where(made < 0, K, made)
        left = late[self.prv] < late             # spoke j made earlier
        self.right = right = late[nxt] < late    # spoke j + 1 made earlier
        self.k = k = np.ones(K, dtype=np.int64)
        k[last] = (after - at) % rim.size + 1
        self.inner = inner = q - 2 - k
        shared = inner < 0                       # both spokes end at one vertex
        # a face's new vertices: its inner ones and the ends of its spokes
        # that no earlier face made (a shared end is new only if neither was)
        t = np.where(shared, ~(left | right), inner + ~left + ~right)
        t[made < 0] = 0
        self.t_made = t_made = t[by_made]
        self.n_new = int(t_made.sum())
        base = np.zeros(K, dtype=np.int64)
        base[by_made] = n + t_made.cumsum() - t_made
        self.base = base
        # the end of spoke j: the forward-most new vertex of face j - 1 or
        # the backmost of face j, whichever face came first
        end = np.where(left, base[self.prv], base + t - 1)
        if shared.any():
            # a face whose spokes share their end hands that end on
            both = shared & (made >= 0)
            jl = (both & left).nonzero()[0]
            end[nxt[jl]] = end[jl]
            jr = (both & right).nonzero()[0]
            end[jr] = end[nxt[jr]]
        self.end = end
        ahead = pos.copy()
        ahead[last] = after
        self.b = np.where(right, end[nxt], rim[ahead])
        self.a = np.where(left, end, rim[pos])

    def records(self, n_faces, n_edges):
        """List records of the new edges.  Each made face adds the path
        b, n_0, ..., n_{t-1}, a from its forward existing vertex through its
        new ones to its back one: b appends n_0, a puts n_{t-1} in front,
        and each new vertex lists its forward then its back neighbor.  The
        faces and edges are numbered on from ``n_faces`` and ``n_edges``."""
        f = self.by_made
        ne = self.t_made + 1
        ends = ne.cumsum()
        E = int(ends[-1])
        heads = ends - ne
        w = (self.base[f] - heads).repeat(ne) + np.arange(E)
        u = w - 1
        u[heads] = self.b[f]
        w[ends - 1] = self.a[f]
        T = np.arange(n_faces, n_faces + f.size)
        rec = np.empty((4, 2, E), dtype=np.int64)
        rec[0, 0], rec[0, 1] = u, w
        rec[1, 0], rec[1, 1] = w, u
        rec[2, 0] = _MID + 1
        rec[2, 0, heads] += T
        rec[2, 1] = _MID
        rec[2, 1, ends - 1] -= T
        rec[3] = 2 * np.arange(n_edges, n_edges + E)
        rec[3, 1] += 1
        return rec.reshape(4, 2 * E)

    def next_rim(self):
        """The rim after this stage, forward: along each made face's new
        vertices, and along the old rim where a face is not made."""
        made = self.made >= 0
        before = made[self.prv]
        x = self.rim[self.pos]
        # spoke j gives its end and its rim vertex, in forward order; a face
        # gives its inner vertices if made, else the rim vertices it spans
        # over (the runs of degree-p vertices)
        two = before != made
        inner = np.where(made & (self.inner > 0), self.inner, 0)
        count = inner.copy()
        count[self.last] = np.where(made[self.last], inner[self.last], self.k[self.last] - 2)
        size = 1 + two + count
        off = size.cumsum() - size
        out = np.empty(int(off[-1] + size[-1]), dtype=np.int64)
        out[off] = np.where(before, self.end, x)
        out[off[two] + 1] = np.where(before, x, self.end)[two]
        face = np.arange(count.size).repeat(count)
        step = np.arange(int(count.sum())) - (count.cumsum() - count).repeat(count)
        start = np.where(made, self.base + ~self.right + inner - 1, self.pos + 1)[face]
        out[(off + 1 + two)[face] + step] = np.where(
            made[face], start - step, self.rim[(start + step) % self.rim.size])
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        rim = out[keep]
        return rim[:-1] if rim[0] == rim[-1] else rim


def _assemble(dist, kept, deg, lists) -> PlanarMap:
    """The map of ``_grow``'s lists: each turned, moved to its vertex's id
    order, cut to the kept vertices and paired by its half-edge ids."""
    nbr, half = lists
    at, id_deg = _placed(dist, kept, deg, nbr)
    inside = dist[nbr[at]] >= 0
    degrees = np.bincount(np.arange(kept.size).repeat(id_deg)[inside], minlength=kept.size)
    half = half[at[inside]]
    del at, inside
    slot = np.empty(2 * (int(half.max()) // 2 + 1), dtype=np.int64)
    slot[half] = np.arange(half.size)
    dart = _number_darts(slot[half ^ 1])
    del half, slot
    return PlanarMap(dart, np.concatenate(([0], degrees.cumsum())))


def _placed(dist, kept, deg, nbr):
    """For each place of the concatenated final lists, the entry of
    ``nbr`` (lists of ``kept``, in that order) that goes there; and the
    degrees in id order."""
    m = nbr.size
    start = deg.cumsum() - deg
    local = np.arange(m) - start.repeat(deg)
    size = deg.repeat(deg)
    # entry i opens the block one step closer to the root when it is that
    # close and entry i - 1 (cyclically) is not; a list starts one entry
    # before its first opener, or as it is when none opens (the root's
    # neighbors are all one step away from it, so it has none)
    up = dist[nbr] == dist[kept].repeat(deg) - 1
    opens = up & ~up[start.repeat(deg) + (local - 1) % size]
    first = np.minimum.reduceat(np.where(opens, local, m), start)
    shift = np.where(first < m, first - 1, 0)
    by_id = kept.argsort()
    id_deg = deg[by_id]
    id_start = np.empty(kept.size, dtype=np.int64)     # where each list goes
    id_start[by_id] = id_deg.cumsum() - id_deg
    at = np.empty(m, dtype=np.int64)
    at[id_start.repeat(deg) + (local - shift.repeat(deg)) % size] = np.arange(m)
    return at, id_deg


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
