"""Finite 2D periodic lattices: site indexing, neighbor tables, minimum-image
displacement classes.

Sites on a width x height torus are indexed row-major, site = row*width + col.
Site coordinates are (x, y) = (col, row) in lattice units. Displacements between
sites are always reduced to the minimum periodic image, with offsets in
(-width/2, width/2] x (-height/2, height/2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class LatticeGeometry:
    """Torus geometry with a precomputed nearest-neighbor table.

    The neighbor table has one row per site, each row sorted ascending.
    Every site has the same degree (the torus is vertex-transitive): 4 for
    width, height >= 3, fewer on degenerate 1- or 2-wide lattices where
    periodic wrap images coincide and are de-duplicated.
    """

    width: int
    height: int
    neighbor_table: np.ndarray  # (n_sites, degree) int64
    degenerate: bool  # width < 3 or height < 3: non-physical for production sweeps

    @property
    def n_sites(self) -> int:
        return self.width * self.height

    @property
    def degree(self) -> int:
        return self.neighbor_table.shape[1]

    def site_coords(self) -> np.ndarray:
        """(n_sites, 2) array of (x, y) = (col, row) positions."""
        idx = np.arange(self.n_sites)
        return np.column_stack([idx % self.width, idx // self.width]).astype(float)


@dataclass(frozen=True)
class DisplacementClass:
    """A minimum-image displacement, or a symmetry class of them.

    ``pair_count`` is the number of ordered site pairs aggregated into the
    class (1 for a single displacement from :func:`min_image_displacement`).
    """

    dx: int
    dy: int
    distance: float
    pair_count: int = 1

    @property
    def is_axis(self) -> bool:
        """True when the displacement lies along a lattice direction."""
        return self.dx == 0 or self.dy == 0


def build_lattice(width: int, height: int) -> LatticeGeometry:
    """Build the periodic neighbor table for a width x height torus.

    Raises ValueError for non-positive dimensions. Widths or heights below 3
    are allowed (the exact small-system solvers need 2x1 and 2x2) but produce
    duplicate wrap images; the duplicates are removed and the geometry is
    flagged ``degenerate``.
    """
    if int(width) != width or int(height) != height or width < 1 or height < 1:
        raise ValueError(f"lattice dimensions must be positive integers, got {width}x{height}")
    width, height = int(width), int(height)
    n = width * height
    rows = []
    degree = None
    for site in range(n):
        r, c = divmod(site, width)
        candidates = {
            r * width + (c - 1) % width,
            r * width + (c + 1) % width,
            ((r - 1) % height) * width + c,
            ((r + 1) % height) * width + c,
        }
        candidates.discard(site)
        nbrs = sorted(candidates)
        if degree is None:
            degree = len(nbrs)
        rows.append(nbrs)
    table = np.asarray(rows, dtype=np.int64).reshape(n, degree)
    return LatticeGeometry(width, height, table, degenerate=(width < 3 or height < 3))


def _wrap(delta: np.ndarray, length: int) -> np.ndarray:
    """Reduce raw offsets into the half-open interval (-length/2, length/2]."""
    d = np.mod(delta, length)
    return np.where(2 * d > length, d - length, d)


def min_image_displacement(geometry: LatticeGeometry, i: int, j: int) -> DisplacementClass:
    """Signed minimum-image offset and Euclidean distance from site i to site j."""
    n = geometry.n_sites
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"site index out of range for {n} sites: ({i}, {j})")
    dx = int(_wrap(np.asarray((j % geometry.width) - (i % geometry.width)), geometry.width))
    dy = int(_wrap(np.asarray((j // geometry.width) - (i // geometry.width)), geometry.height))
    return DisplacementClass(dx, dy, float(np.hypot(dx, dy)), pair_count=1)


def offset_class_index(geometry: LatticeGeometry) -> tuple[list[DisplacementClass], np.ndarray]:
    """Partition the torus offsets into displacement classes, in O(n).

    The class of an ordered pair i -> j depends only on its offset
    (row_j - row_i mod height, col_j - col_i mod width), keyed by the
    minimum-image |dx|, |dy|; on square lattices the key is also sorted so
    that dx >= dy (the x<->y swap is a symmetry only there).

    Returns the class list (sorted by distance, then dx, then dy; counts are
    ordered pairs) and a (height, width) map from offset to class index,
    with -1 at the zero offset.
    """
    width, height = geometry.width, geometry.height
    adx = np.abs(_wrap(np.arange(width), width))[None, :]
    ady = np.abs(_wrap(np.arange(height), height))[:, None]
    if width == height:
        adx, ady = np.maximum(adx, ady), np.minimum(adx, ady)
    keys = np.stack(np.broadcast_arrays(adx, ady), axis=-1).reshape(-1, 2)
    uniq, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    # by distance, then dx, then dy; the zero offset sorts first and gets no class
    order = np.lexsort((uniq[:, 1], uniq[:, 0], np.hypot(uniq[:, 0], uniq[:, 1])))[1:]
    remap = np.full(len(uniq), -1, dtype=np.int64)
    remap[order] = np.arange(len(order))
    classes = [DisplacementClass(int(x), int(y), float(np.hypot(x, y)), geometry.n_sites * int(c))
               for (x, y), c in zip(uniq[order], counts[order])]
    return classes, remap[inverse].reshape(height, width)


def pair_class_index(geometry: LatticeGeometry) -> tuple[list[DisplacementClass], np.ndarray]:
    """Partition all ordered pairs i != j into displacement classes.

    Returns the classes of :func:`offset_class_index` and the (n, n) map from
    ordered pair to class index, -1 on the diagonal. The map takes O(n^2)
    memory and serves inspection and tests; the estimators use the offset map.
    """
    classes, offset_id = offset_class_index(geometry)
    row, col = np.divmod(np.arange(geometry.n_sites), geometry.width)
    return classes, offset_id[(row - row[:, None]) % geometry.height, (col - col[:, None]) % geometry.width]


def distance_classes(geometry: LatticeGeometry) -> list[DisplacementClass]:
    """Displacement classes with ordered-pair counts; counts sum to N(N-1)."""
    classes, _ = offset_class_index(geometry)
    return classes


def bonds(geometry: LatticeGeometry) -> list[tuple[int, int]]:
    """Unique nearest-neighbor bonds (i < j), de-duplicated on wrap images."""
    out = set()
    for i in range(geometry.n_sites):
        for j in geometry.neighbor_table[i]:
            out.add((min(i, int(j)), max(i, int(j))))
    return sorted(out)
