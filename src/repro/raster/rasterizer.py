"""Edge-function triangle rasterization (the Rasterizer stage).

Discretizes screen-space primitives into fragments inside a rectangular
region (a tile), producing per-fragment perspective-correct interpolants.
Two entry points share the same arithmetic:

* :func:`rasterize_in_region` — one primitive against the region.  This
  is the scalar reference (the *parity oracle* of the batched path).
* :func:`rasterize_tile` — every primitive of a tile, or of a chunk of
  tiles, in one shot: the edge functions of all P primitives are
  evaluated as one (P, H, W) broadcast over region-local pixels, each
  primitive against its own region's origin, and the covered fragments
  come back as packed structure-of-arrays (:class:`TileFragments`),
  sliceable per primitive.  Because every elementwise operation runs on
  exactly the same operand values as the scalar path (broadcasting
  never changes per-element IEEE arithmetic, and a region-local pixel
  plus its origin is the same integral float) and the bounding-box clip
  is applied as an explicit mask, each slice is *bit-identical* to the
  corresponding :func:`rasterize_in_region` call — a property the test
  suite checks.

Fill convention is the top-left rule, so triangles sharing an edge never
double-shade a pixel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..geometry.primitive import Primitive


@dataclass
class FragmentBatch:
    """Fragments of one primitive inside one region (tile)."""

    #: Pixel coordinates, int arrays of equal length.
    xs: np.ndarray
    ys: np.ndarray
    #: Interpolated NDC depth per fragment.
    depth: np.ndarray
    #: Perspective-correct texture coordinates per fragment.
    u: np.ndarray
    v: np.ndarray

    @property
    def count(self) -> int:
        """Number of fragments in the batch."""
        return len(self.xs)

    def quad_count(self) -> int:
        """Number of 2x2 quads touched (the Early-Z work unit)."""
        if self.count == 0:
            return 0
        # Pack each (x // 2, y // 2) quad coordinate into one integer so
        # the distinct count is a single np.unique over a flat array
        # instead of a Python set of tuples.  Screen coordinates are far
        # below 2**32, so the multiplicative packing cannot collide.
        keys = ((np.asarray(self.xs, dtype=np.int64) >> 1) << 32) \
            + (np.asarray(self.ys, dtype=np.int64) >> 1)
        return int(np.unique(keys).size)


_EMPTY = FragmentBatch(
    xs=np.empty(0, dtype=np.int64), ys=np.empty(0, dtype=np.int64),
    depth=np.empty(0), u=np.empty(0), v=np.empty(0))


def rasterize_in_region(prim: Primitive, x0: int, y0: int,
                        width: int, height: int) -> FragmentBatch:
    """Rasterize ``prim`` clipped to the pixel region [x0, x0+width) x
    [y0, y0+height).

    Returns the covered fragments with perspective-correct depth and UV.
    """
    xy = prim.xy
    area2 = prim.signed_area()
    if area2 == 0.0:
        return _EMPTY
    if area2 < 0.0:
        # Normalize to counter-clockwise (positive area) winding so the
        # edge tests below are uniform.
        order = (0, 2, 1)
        area2 = -area2
    else:
        order = (0, 1, 2)
    ax, ay = xy[order[0]]
    bx, by = xy[order[1]]
    cx, cy = xy[order[2]]

    # Intersect the primitive's bounding box with the region.
    min_x = max(int(np.floor(min(ax, bx, cx))), x0)
    max_x = min(int(np.ceil(max(ax, bx, cx))), x0 + width)
    min_y = max(int(np.floor(min(ay, by, cy))), y0)
    max_y = min(int(np.ceil(max(ay, by, cy))), y0 + height)
    if min_x >= max_x or min_y >= max_y:
        return _EMPTY

    px, py = np.meshgrid(
        np.arange(min_x, max_x, dtype=np.float64) + 0.5,
        np.arange(min_y, max_y, dtype=np.float64) + 0.5)

    # Edge functions; e_i >= 0 means inside edge i for CCW winding.
    e0 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
    e1 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
    e2 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)

    mask = _inside(e0, bx, by, cx, cy) \
        & _inside(e1, cx, cy, ax, ay) \
        & _inside(e2, ax, ay, bx, by)
    if not mask.any():
        return _EMPTY

    w0 = e0[mask] / area2
    w1 = e1[mask] / area2
    w2 = e2[mask] / area2

    d = prim.depth[list(order)]
    iw = prim.inv_w[list(order)]
    uvw = prim.uv_over_w[list(order)]

    depth = w0 * d[0] + w1 * d[1] + w2 * d[2]
    inv_w = w0 * iw[0] + w1 * iw[1] + w2 * iw[2]
    inv_w = np.where(inv_w == 0.0, 1e-30, inv_w)
    u = (w0 * uvw[0, 0] + w1 * uvw[1, 0] + w2 * uvw[2, 0]) / inv_w
    v = (w0 * uvw[0, 1] + w1 * uvw[1, 1] + w2 * uvw[2, 1]) / inv_w

    ys_grid, xs_grid = np.nonzero(mask)
    return FragmentBatch(
        xs=xs_grid + min_x,
        ys=ys_grid + min_y,
        depth=depth,
        u=u,
        v=v,
    )


@dataclass
class TileFragments:
    """All fragments of a tile or a chunk of tiles, packed
    primitive-major (SoA layout).

    Fragments of primitive ``i`` occupy the contiguous slice
    ``offsets[i]:offsets[i+1]`` of every array, in the same row-major
    pixel order :func:`rasterize_in_region` produces.
    """

    xs: np.ndarray
    ys: np.ndarray
    depth: np.ndarray
    u: np.ndarray
    v: np.ndarray
    #: Primitive index (into the list :func:`rasterize_tile` took) per
    #: fragment.
    prim_id: np.ndarray
    #: (P + 1,) prefix sums of per-primitive fragment counts.
    offsets: np.ndarray

    @property
    def count(self) -> int:
        """Total fragments across all primitives."""
        return len(self.xs)

    def batch_for(self, index: int) -> FragmentBatch:
        """The fragments of one primitive as a :class:`FragmentBatch`.

        Returns array *views* into the packed storage (no copies).
        """
        sl = slice(int(self.offsets[index]), int(self.offsets[index + 1]))
        return FragmentBatch(xs=self.xs[sl], ys=self.ys[sl],
                             depth=self.depth[sl], u=self.u[sl],
                             v=self.v[sl])

    def counts(self) -> np.ndarray:
        """(P,) fragment count per primitive."""
        return self.offsets[1:] - self.offsets[:-1]

    def select(self, mask: np.ndarray) -> TileFragments:
        """The fragments ``mask`` keeps, still packed per primitive."""
        prim_id = self.prim_id[mask]
        offsets = np.zeros_like(self.offsets)
        np.cumsum(np.bincount(prim_id, minlength=len(offsets) - 1),
                  out=offsets[1:])
        return TileFragments(xs=self.xs[mask], ys=self.ys[mask],
                             depth=self.depth[mask], u=self.u[mask],
                             v=self.v[mask], prim_id=prim_id,
                             offsets=offsets)

    def quad_counts(self, x0, y0, width: int, height: int) -> np.ndarray:
        """(P,) :meth:`FragmentBatch.quad_count` of every primitive, for
        fragments inside the region [x0, x0+width) x [y0, y0+height).

        ``x0`` and ``y0`` are one origin for all primitives or one per
        primitive (as :func:`rasterize_tile` takes them).  Marks each
        fragment's 2x2 quad in one (P, quads) bitmap of its region's
        quads, then counts per row.  Quads are screen-aligned, so a
        region at an odd origin starts inside a quad.
        """
        x0, y0 = np.asarray(x0), np.asarray(y0)
        qx0, qy0 = x0 >> 1, y0 >> 1
        span = int((((x0 + width - 1) >> 1) - qx0).max()) + 1
        cells = (int((((y0 + height - 1) >> 1) - qy0).max()) + 1) * span
        if x0.ndim:
            qx0, qy0 = qx0[self.prim_id], qy0[self.prim_id]
        bitmap = np.zeros((len(self.offsets) - 1) * cells, dtype=bool)
        bitmap[self.prim_id * cells + ((self.ys >> 1) - qy0) * span
               + ((self.xs >> 1) - qx0)] = True
        return np.count_nonzero(bitmap.reshape(-1, cells), axis=1)


def rasterize_tile(prims: Sequence[Primitive], x0, y0,
                   width: int, height: int) -> TileFragments:
    """Rasterize every primitive of a tile in one broadcast evaluation.

    Equivalent to calling :func:`rasterize_in_region` per primitive and
    concatenating the results (each slice is bit-identical, see module
    docstring), but the setup, edge functions, fill-rule masks and
    perspective-correct interpolation all run as array operations over
    the P primitives instead of P times over per-primitive grids.

    ``x0`` and ``y0`` are the region's origin, one int for every
    primitive or one per primitive: a chunk of tiles rasterizes as one
    call in which every (tile, primitive) pair is a primitive with its
    own tile's origin.
    """
    num = len(prims)
    if num == 0:
        return _no_fragments(0)

    # Per-primitive setup mirrors the scalar path element for element:
    # the signed area, the bounding box clipped to the region, then
    # winding normalization.  Boxes stay integral floats; clipping both
    # ends to the region changes no box that survives the emptiness test.
    corners = np.array([(prim.xy, prim.uv_over_w) for prim in prims])
    xy = corners[:, 0]                                        # (P, 3, 2)
    x, y = xy[:, :, 0], xy[:, :, 1]
    area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) \
        - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0])
    origin = np.empty((num, 2), dtype=np.int64)
    origin[:, 0], origin[:, 1] = x0, y0
    lo = np.maximum(np.floor(xy.min(axis=1)), origin)         # (P, 2)
    hi = np.minimum(np.ceil(xy.max(axis=1)), origin + (width, height))
    live = (area2 != 0.0) & (lo < hi).all(axis=1)
    rows = np.arange(num)[:, None]
    if not live.all():
        rows = rows[live]
        if rows.size == 0:
            return _no_fragments(num)
        area2, lo, hi, origin = area2[live], lo[live], hi[live], origin[live]
    # Clockwise primitives swap vertices 1 and 2.
    sel = rows, _VERTEX_ORDER[(area2 < 0.0).view(np.int8)]
    verts = xy[sel]
    area2s = np.abs(area2)
    # Attribute rows: depth, 1/w, u/w, v/w of vertex 0, then of vertices
    # 1 and 2; one column per live primitive.
    attrs = np.concatenate(
        (np.array([(prim.depth, prim.inv_w) for prim in prims])
         .transpose(0, 2, 1), corners[:, 1]), axis=2)[sel]
    attrs = np.ascontiguousarray(attrs.reshape(len(attrs), 12).T)

    # Only the union of the live boxes, each taken relative to its own
    # origin, can hold fragments.  A pixel's centre is its origin plus
    # its region-local offset, an exact integral float, plus 0.5: the
    # operand the scalar path computes.
    gx0, gy0 = (lo - origin).min(axis=0).astype(np.int64).tolist()
    gx1, gy1 = (hi - origin).max(axis=0).astype(np.int64).tolist()
    px = (origin[:, 0, None] + np.arange(gx0, gx1)) + 0.5     # (L, W)
    py = (origin[:, 1, None] + np.arange(gy0, gy1)) + 0.5     # (L, H)

    # The scalar path only ever evaluates pixels inside the clipped
    # bounding box; starting from the same rectangle makes the fragment
    # sets equal by construction (not just up to rounding).
    mask = ((py >= lo[:, 1, None]) & (py < hi[:, 1, None]))[:, :, None] \
        & ((px >= lo[:, 0, None]) & (px < hi[:, 0, None]))[:, None, :]
    # Edge functions of every primitive over the grid, with the exact
    # operand values of the scalar path: edge = dx * (py - sy) -
    # dy * (px - sx), a per-row term minus a per-column term, and
    # _inside's top-left rule for fragments exactly on an edge.  The
    # grid keeps only the coverage mask; each fragment's edge values are
    # recomputed from the two terms, the same subtraction of the same
    # operands.
    edge = np.empty(mask.shape)
    inside = np.empty(mask.shape, dtype=bool)
    terms = []
    for start_vertex, end_vertex in ((1, 2), (2, 0), (0, 1)):
        sx, sy = verts[:, start_vertex, 0], verts[:, start_vertex, 1]
        dx = verts[:, end_vertex, 0] - sx
        dy = verts[:, end_vertex, 1] - sy
        by_row = dx[:, None] * (py - sy[:, None])              # (L, H)
        by_col = dy[:, None] * (px - sx[:, None])              # (L, W)
        np.subtract(by_row[:, :, None], by_col[:, None, :], out=edge)
        np.greater(edge, 0.0, out=inside)
        top_left = ((dy == 0.0) & (dx > 0.0)) | (dy < 0.0)
        np.greater_equal(edge, 0.0, out=inside,
                         where=top_left[:, None, None])
        mask &= inside
        terms.append((by_row.reshape(-1), by_col.reshape(-1)))
    del edge, inside

    # Covered cells in (primitive, row, column) order, the order of
    # rasterize_in_region's fragments per primitive.
    cell = np.flatnonzero(mask)
    del mask
    columns = gx1 - gx0
    at_row = cell // columns                    # (primitive, row) term
    xs = cell - at_row * columns
    del cell
    local = at_row // (gy1 - gy0)
    ys = at_row - local * (gy1 - gy0)
    at_col = local * columns + xs                # (primitive, column)
    xs += (origin[:, 0] + gx0)[local]
    ys += (origin[:, 1] + gy0)[local]
    # Every per-fragment product and sum below is the scalar path's, in
    # its order (a product's operands commute exactly); gathering into
    # one scratch array keeps the working set at a few arrays per
    # fragment.
    area2s = area2s[local]
    scratch = np.empty(len(local))
    weights = []
    for by_row, by_col in terms:
        weight = by_row[at_row]
        weight -= np.take(by_col, at_col, out=scratch)
        weight /= area2s
        weights.append(weight)
    del at_row, at_col, area2s, terms

    def lerp(attr: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        out = np.multiply(weights[0], attrs[attr][local], out=out)
        for vertex in (1, 2):
            np.take(attrs[attr + 4 * vertex], local, out=scratch)
            out += np.multiply(scratch, weights[vertex], out=scratch)
        return out

    inv_w = lerp(1)
    inv_w[inv_w == 0.0] = 1e-30
    u = lerp(2)
    u /= inv_w
    v = lerp(3)
    v /= inv_w
    del inv_w
    # The last interpolation overwrites the first weight, read first.
    depth = lerp(0, out=weights[0])

    pid = local if len(rows) == num else rows[local, 0]
    counts = np.bincount(pid, minlength=num)
    offsets = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return TileFragments(xs=xs, ys=ys, depth=depth, u=u, v=v, prim_id=pid,
                         offsets=offsets)


#: Vertex order by winding: counter-clockwise primitives keep theirs,
#: clockwise ones swap vertices 1 and 2 (as :func:`rasterize_in_region`).
_VERTEX_ORDER = np.array([[0, 1, 2], [0, 2, 1]])


def _no_fragments(num: int) -> TileFragments:
    """The packed result of a tile whose ``num`` primitives cover nothing."""
    izeros = np.zeros(0, dtype=np.int64)
    fzeros = np.zeros(0)
    return TileFragments(xs=izeros, ys=izeros, depth=fzeros, u=fzeros,
                         v=fzeros, prim_id=izeros,
                         offsets=np.zeros(num + 1, dtype=np.int64))


def _inside(edge_values: np.ndarray, ex0: float, ey0: float,
            ex1: float, ey1: float) -> np.ndarray:
    """Edge test with the top-left fill rule.

    An edge is *top* when horizontal and going right (in a y-down CCW
    triangle) and *left* when going up; fragments exactly on such edges are
    inside, on others outside — the standard rule that makes adjacent
    triangles partition the plane.
    """
    dx = ex1 - ex0
    dy = ey1 - ey0
    top = (dy == 0.0) and (dx > 0.0)
    left = dy < 0.0
    if top or left:
        return edge_values >= 0.0
    return edge_values > 0.0
