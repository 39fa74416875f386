"""Shared pytest wiring and test helpers.

``delaunay_rotations`` turns seeded points into the rotation lists of their
Delaunay triangulation; the map and packing tests each sample their own
points.  ``TWO_WHEELS`` is a planar map whose rim cuts its interior in two,
and ``PINCHED_WHEEL`` one whose outer face visits a rim vertex twice.  The
one hook prints a one-line verdict per deliverable check from
test_acceptance.py at the end of the run, so the terminal (and any tee'd log)
ends with a compact scoreboard.
"""

import numpy as np
from scipy.spatial import Delaunay


def delaunay_rotations(pts):
    """Rotation lists (neighbors by increasing angle) of the Delaunay
    triangulation of the points ``pts``, one row of (x, y) per vertex."""
    indptr, nbrs = Delaunay(pts).vertex_neighbor_vertices
    rotations = []
    for v in range(len(pts)):
        nb = nbrs[indptr[v]:indptr[v + 1]]
        d = pts[nb] - pts[v]
        rotations.append(nb[np.argsort(np.arctan2(d[:, 1], d[:, 0]))].tolist())
    return rotations


# Two 4-wheels, hubs 1 and 5, that share rim vertex 0: the rim of the outer
# face separates the two hubs, so the map has no connected interior.
TWO_WHEELS = [[4, 8, 5, 6, 2, 1], [4, 0, 2, 3], [3, 1, 0], [4, 1, 2], [0, 1, 3],
              [8, 7, 6, 0], [0, 5, 7], [8, 6, 5], [7, 5, 0]]

# A 5-wheel around hub 0 with the triangle 1, 6, 7 hanging off rim vertex 1:
# the outer face walk 2, 3, 4, 5, 1, 7, 6, 1 visits vertex 1 twice.
PINCHED_WHEEL = [[1, 2, 3, 4, 5], [2, 0, 5, 7, 6], [3, 0, 1], [4, 0, 2], [5, 0, 3],
                 [1, 0, 4], [1, 7], [6, 1]]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            if outcome != "error" and getattr(rep, "when", "call") != "call":
                continue
            name = nodeid.rsplit("::", 1)[-1]
            key = name[len("test_criterion_"):][:2]
            verdicts[key] = (name, "PASS" if outcome == "passed" else "FAIL")
    if not verdicts:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(verdicts):
        name, verdict = verdicts[key]
        terminalreporter.write_line(f"criterion {key} ({name}): {verdict}")
