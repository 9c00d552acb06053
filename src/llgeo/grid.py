"""Rectangular cell-centered grids in 1, 2 or 3 dimensions.

A grid is a lattice of cell centers origin + index*spacing.  Boxes are
centered at the coordinate origin by default so that position-weighted
integrals of symmetric fields cancel cleanly.
"""

from dataclasses import dataclass, field

import numpy as np

BOUNDARY_LAYER = 2  # cells per face that stand in for "vanishing at infinity"


@dataclass(frozen=True)
class Grid:
    """Cell-centered lattice descriptor.

    dims     -- cell counts per axis (at least 8 per axis)
    spacing  -- cell width per axis
    origin   -- coordinate of the first cell center
    """

    dims: tuple
    spacing: tuple
    origin: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)
        p = len(dims)
        if p not in (1, 2, 3):
            raise ValueError(f"grid dimension must be 1, 2 or 3, got {p}")
        if len(spacing) != p or len(origin) != p:
            raise ValueError("dims, spacing and origin must have equal length")
        if any(d < 8 for d in dims):
            raise ValueError(f"need at least 8 cells per axis, got {dims}")
        if any(s <= 0 for s in spacing):
            raise ValueError(f"spacing must be positive, got {spacing}")

    @classmethod
    def centered(cls, dims, box):
        """Grid of `dims` cells covering a box of total side length(s) `box`
        centered at the origin."""
        dims = tuple(int(d) for d in np.atleast_1d(dims))
        box = np.broadcast_to(np.atleast_1d(np.asarray(box, float)), (len(dims),))
        spacing = tuple(b / d for b, d in zip(box, dims))
        origin = tuple(-b / 2 + s / 2 for b, s in zip(box, spacing))
        return cls(dims, spacing, origin)

    @property
    def p(self):
        return len(self.dims)

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def axis_coords(self, axis):
        """1-d array of cell-center coordinates along one axis."""
        return self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis])

    def cell_center(self, index):
        """Exact coordinate of the cell with the given integer multi-index."""
        index = np.asarray(index)
        return np.asarray(self.origin) + index * np.asarray(self.spacing)

    def coords(self):
        """Cell-center coordinates, shape dims + (p,).  Cached and read-only."""
        cached = getattr(self, "_coords", None)
        if cached is None:
            axes = [self.axis_coords(i) for i in range(self.p)]
            cached = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            cached.setflags(write=False)
            object.__setattr__(self, "_coords", cached)
        return cached

    def coord_component(self, axis):
        """Contiguous array (shape dims) of the `axis` coordinate of every
        cell center; cached."""
        cache = getattr(self, "_coord_parts", None)
        if cache is None:
            cache = [np.ascontiguousarray(self.coords()[..., i]) for i in range(self.p)]
            for arr in cache:
                arr.setflags(write=False)
            object.__setattr__(self, "_coord_parts", cache)
        return cache[axis]

    def radius(self):
        """Distance of every cell center from the coordinate origin."""
        return np.sqrt((self.coords() ** 2).sum(axis=-1))

    def boundary_mask(self, thickness=BOUNDARY_LAYER):
        """Boolean mask of cells within `thickness` cells of any face."""
        mask = np.zeros(self.dims, dtype=bool)
        for axis in range(self.p):
            sl = [slice(None)] * self.p
            sl[axis] = slice(0, thickness)
            mask[tuple(sl)] = True
            sl[axis] = slice(self.dims[axis] - thickness, None)
            mask[tuple(sl)] = True
        return mask

    def half_widths(self):
        """Half the box extent per axis (box spans cell edges)."""
        return tuple(d * s / 2 for d, s in zip(self.dims, self.spacing))
