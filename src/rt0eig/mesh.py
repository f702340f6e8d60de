"""Structured triangular meshes of axis-aligned rectangles.

The mesh generator produces an n-by-n grid of squares, each split along the
lower-left to upper-right diagonal, with globally oriented edges.  Edge
degrees of freedom (one per edge) and triangle degrees of freedom (one per
triangle) are the carriers of the lowest-order mixed discretization, so the
mesh records, for every triangle, which global edge each local edge maps to
and whether the triangle's outward normal agrees with the global edge normal.
The study reads these arrays whole; per-triangle accessors and the text
dump of a mesh are test references in tests/oracles.py.
"""

import operator
from dataclasses import dataclass, field

import numpy as np


class MeshError(Exception):
    """Invalid mesh geometry or construction parameters."""


def as_integer(v) -> int:
    """v as an int, the package's one rule for a count, size or seed:
    whatever operator.index takes (numpy integers included) except a bool,
    an int subclass that would run k = True as k = 1.  TypeError
    otherwise, which each caller turns into its own error naming v."""
    if isinstance(v, (bool, np.bool_)):
        raise TypeError(f"{v!r} is a bool")
    return operator.index(v)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [x0, x1] x [y0, y1] with finite bounds and
    finite positive extent."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        # NaN fails every comparison, and an extent is inf when a bound is
        # or when finite bounds lie so far apart that it overflows
        if not (0 < self.width < np.inf and 0 < self.height < np.inf):
            raise MeshError(
                "rectangle must have finite bounds and finite positive "
                f"extent, got [{self.x0}, {self.x1}] x [{self.y0}, {self.y1}]"
            )

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0


UNIT_SQUARE = Rectangle(0.0, 0.0, 1.0, 1.0)


@dataclass(frozen=True)
class Mesh:
    """Triangulation of a rectangle with oriented edges.

    Attributes
    ----------
    rect : Rectangle
        The meshed domain.
    n : int
        Subdivision count per axis.
    vertices : ((n + 1)^2, 2) float array
        Vertex coordinates, row-major over the grid.
    triangles : (num_triangles, 3) int array
        Vertex indices per triangle, counterclockwise.
    edges : (num_edges, 2) int array
        Vertex index pairs, oriented from lower to higher index.
    triangle_edges : (num_triangles, 3) int array
        Global edge index of the local edge opposite each vertex.  Edges
        are numbered in the order a walk over the triangles first meets
        them, which the iterative solver's hybridization relies on.
    triangle_edge_signs : (num_triangles, 3) int array
        +1 where the triangle's outward normal on that edge equals the
        global edge normal (90-degree counterclockwise rotation of the
        oriented edge direction), -1 otherwise.
    boundary_edge_flags : (num_edges,) bool array
        True for edges referenced by exactly one triangle.
    h : float
        Mesh size, the maximum edge length.

    Derived arrays `areas` and `edge_lengths` are precomputed.  All arrays
    are read-only; a Mesh is safe to share across threads.
    """

    rect: Rectangle
    n: int
    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    triangle_edges: np.ndarray
    triangle_edge_signs: np.ndarray
    boundary_edge_flags: np.ndarray
    h: float
    areas: np.ndarray = field(repr=False)
    edge_lengths: np.ndarray = field(repr=False)

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


def _signed_areas(vertices, triangles):
    u = vertices[triangles[:, 1]] - vertices[triangles[:, 0]]
    v = vertices[triangles[:, 2]] - vertices[triangles[:, 0]]
    return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def build_structured_mesh(rect: Rectangle, n: int) -> Mesh:
    """Triangulate `rect` with an n-by-n grid of diagonally split squares.

    Every square is split along its lower-left to upper-right diagonal into
    two counterclockwise triangles.  Vertex, triangle and edge orderings are
    deterministic: vertices row-major over the grid, triangles row-major
    with the lower triangle first, edges in first-seen order while walking
    the triangles.

    Parameters
    ----------
    rect : Rectangle
    n : int
        Subdivisions per axis, an integer (see as_integer) of at least 1.

    Returns
    -------
    Mesh
    """
    if not isinstance(rect, Rectangle):
        raise MeshError("rect must be a Rectangle")
    try:
        n = as_integer(n)
        if n < 1:
            raise TypeError
    except TypeError:
        raise MeshError(f"subdivision count n must be an integer >= 1, "
                        f"got {n!r}") from None

    xs = np.linspace(rect.x0, rect.x1, n + 1)
    ys = np.linspace(rect.y0, rect.y1, n + 1)
    xx, yy = np.meshgrid(xs, ys)  # row-major: index iy*(n+1)+ix
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # square (ix, iy) has lower-left vertex iy*(n+1)+ix and is split into
    # its lower triangle (v00, v10, v11) and upper triangle (v00, v11, v01)
    iy, ix = np.divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = iy * (n + 1) + ix
    v10, v01 = v00 + 1, v00 + (n + 1)
    v11 = v01 + 1
    triangles = np.stack([v00, v10, v11, v00, v11, v01],
                         axis=1).reshape(2 * n * n, 3)

    # local edge i is opposite vertex i, walked counterclockwise from a to b
    a = triangles[:, [1, 2, 0]].ravel()
    b = triangles[:, [2, 0, 1]].ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # number the edges in the order the walk over triangles first meets them
    _, first, walk_edge = np.unique(lo * len(vertices) + hi,
                                    return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    triangle_edges = rank[walk_edge].reshape(-1, 3)
    edges = np.column_stack([lo, hi])[first[order]]
    boundary_edge_flags = np.bincount(triangle_edges.ravel()) == 1
    # The counterclockwise walk a->b has the outward normal clockwise of the
    # walk direction; the global normal is counterclockwise of the low->high
    # direction, so the two agree exactly when the walk descends the vertex
    # indices.
    triangle_edge_signs = np.where(a > b, 1, -1).reshape(-1, 3)

    # a finite rectangle can still overflow the areas; the check below names
    # that, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        areas = _signed_areas(vertices, triangles)
    # inf passes areas > 0
    if not np.all((areas > 0) & (areas < np.inf)):
        raise MeshError(
            "triangulation produced non-positive or non-finite triangle areas")
    vec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    edge_lengths = np.hypot(vec[:, 0], vec[:, 1])
    h = float(edge_lengths.max())

    for arr in (vertices, triangles, edges, triangle_edges,
                triangle_edge_signs, boundary_edge_flags, areas, edge_lengths):
        arr.setflags(write=False)

    return Mesh(
        rect=rect,
        n=n,
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        triangle_edges=triangle_edges,
        triangle_edge_signs=triangle_edge_signs,
        boundary_edge_flags=boundary_edge_flags,
        h=h,
        areas=areas,
        edge_lengths=edge_lengths,
    )


def nested_dissection_order(mesh: Mesh) -> np.ndarray:
    """Nested-dissection order of the interior edges, the unknowns of the
    hybridized system's interface multipliers.

    The cell grid is bisected along the middle grid line of its longer
    side (counted in cells, the x-side on a tie), and the grid-line edges
    on that line are the separator: the multiplier system couples only the
    interior edges of one triangle, so removing them disconnects the two
    halves.  Each half is ordered before its separator, recursively down
    to single cells, whose one interior edge is their diagonal; edges of
    one separator keep their mesh order.

    The tree is walked one level at a time, all boxes of a level at once.
    Every node gets a base-3 sort key whose digits spell its path (0 lower
    half, 1 upper half, 2 separator, then zeros), so the keys compare as
    the post-order of the tree.  The keys live in a table over doubled
    grid coordinates, from which every edge reads its own at its midpoint.

    Returns
    -------
    (num_interior_edges,) int array of edge indices, in that order.
    """
    n = mesh.n
    # key[Y, X] at doubled grid coordinates: even on a grid line, odd
    # inside a cell row or column
    key = np.zeros((2 * n + 1, 2 * n + 1), dtype=np.int64)
    # each axis is cut at most ceil(log2 n) times
    place = 3 ** (2 * (n - 1).bit_length())
    # the boxes of cells [x0, x1) x [y0, y1) of one level and their keys
    x0 = y0 = box_key = np.zeros(1, dtype=np.int64)
    x1 = y1 = np.full(1, n, dtype=np.int64)
    while box_key.size:
        place //= 3
        w, h = x1 - x0, y1 - y0
        cell = (w == 1) & (h == 1)
        key[2 * y0[cell] + 1, 2 * x0[cell] + 1] = box_key[cell]
        x0, y0, x1, y1, w, h, box_key = (
            a[~cell] for a in (x0, y0, x1, y1, w, h, box_key))
        vertical = w >= h
        cut = np.where(vertical, x0 + w // 2, y0 + h // 2)
        # the separator's edges sit at 2 * cut across the cut and at the
        # odd coordinates of the box's cells along it
        first = np.where(vertical, y0, x0)
        count = np.where(vertical, h, w)
        offset = np.repeat(np.cumsum(count) - count - first, count)
        along = 2 * (np.arange(offset.size) - offset) + 1
        across = np.repeat(2 * cut, count)
        on_x = np.repeat(vertical, count)
        key[np.where(on_x, along, across), np.where(on_x, across, along)] = (
            np.repeat(box_key + 2 * place, count))
        # the lower (left or bottom) half keeps the key, the upper adds place
        x0, x1 = (np.concatenate([x0, np.where(vertical, cut, x0)]),
                  np.concatenate([np.where(vertical, cut, x1), x1]))
        y0, y1 = (np.concatenate([y0, np.where(vertical, y0, cut)]),
                  np.concatenate([np.where(vertical, y1, cut), y1]))
        box_key = np.concatenate([box_key, box_key + place])

    interior = np.flatnonzero(~mesh.boundary_edge_flags)
    # doubled grid coordinates of the midpoints: the sums of the vertices'
    iy, ix = np.divmod(mesh.edges[interior], n + 1)
    x, y = ix.sum(axis=1), iy.sum(axis=1)
    return interior[np.argsort(key[y, x], kind="stable")]

