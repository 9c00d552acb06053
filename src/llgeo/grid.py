"""Rectangular cell-centered grids in 1, 2 or 3 dimensions.

A grid is a lattice of cell centers origin + index*spacing.  Boxes are
centered at the coordinate origin by default so that position-weighted
integrals of symmetric fields cancel cleanly.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

BOUNDARY_LAYER = 2  # cells per face that stand in for "vanishing at infinity"


def _real(name, value, kind=numbers.Real, cast=float, noun="a real number"):
    """value as a float, refusing a bool or anything that is not a real
    number with a ValueError that names the argument."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name}: must be {noun}, got {value!r}")
    return cast(value)


def _count(name, value):
    """value as an int by _real's rule: a numpy integer passes, and True,
    2.0 and 2.5 are refused.  Every count an argument gives (grid dims, the
    soliton's degree, a run's steps) is read by it."""
    return _real(name, value, numbers.Integral, int, "an int")


def _along(axis, p):
    """The indexer s -> (slice(None),) * axis + (s,), which indexes along
    one axis of an array whose leading axes are a p-dimensional grid's and
    keeps every other axis (and so the array's layout); ValueError unless
    0 <= axis < p."""
    if not 0 <= axis < p:
        raise ValueError(f"axis {axis} out of range for p={p}")
    return lambda s: (slice(None),) * axis + (s,)


def _flat(p, x, *others):
    """The (components, cells) flat views of arrays laid out as dims + comp
    (a p-dimensional grid's dims, then any per-cell shape), x and then
    others, and the flat stride of each grid axis: the neighbors of cell i
    along an axis of flat stride s are cells i +- s, except on the axis's
    two edge rows, where i +- s wraps into another row.  The grid axes of x,
    and apart from them its component axes, are taken in memory order
    (np.empty_like's), so C order, component planes and Fortran order each
    give a view without a copy, and every array is viewed in that order.
    x is only read, and is copied once when it has no such view; each of
    the others is written through its view, so one that has none (its axes
    lie in another memory order) raises ValueError rather than be copied
    and left unwritten."""
    axes = sorted(range(x.ndim), key=lambda a: (a < p, -abs(x.strides[a])))
    views = [y.transpose(axes).reshape(-1, math.prod(y.shape[:p]), copy=None if y is x else False)
             for y in (x,) + others]
    return views, tuple(math.prod(x.shape[b] for b in axes[axes.index(a) + 1:]) for a in range(p))


@dataclass(frozen=True)
class Grid:
    """Cell-centered lattice descriptor.  A grid keeps no grid-sized array:
    its coordinates are per-axis rows (axis_coords, the open mesh _rows and
    the power rows _coord_powers), which every coordinate reader
    broadcasts; no reader builds a grid-sized coordinate array.

    dims     -- cell counts per axis (at least 8 per axis)
    spacing  -- cell width per axis
    origin   -- coordinate of the first cell center
    """

    dims: tuple
    spacing: tuple
    origin: tuple

    def __post_init__(self):
        dims = tuple(_count("dims", d) for d in self.dims)
        spacing = tuple(_real("spacing", s) for s in self.spacing)
        origin = tuple(_real("origin", o) for o in self.origin)
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
        if not all(np.isfinite(s) and s > 0 for s in spacing):
            raise ValueError(f"spacing must be finite and positive, got {spacing}")
        if not np.isfinite(origin).all():
            raise ValueError(f"origin must be finite, got {origin}")

    @classmethod
    def centered(cls, dims, box):
        """Grid of `dims` cells covering a box of total side length(s) `box`
        centered at the origin; one side length is every axis's."""
        dims = tuple(_count("dims", d) for d in (dims if np.ndim(dims) else (dims,)))
        box = np.broadcast_to([_real("box", b) for b in (box if np.ndim(box) else (box,))], (len(dims),))
        spacing = tuple(b / d for b, d in zip(box, dims))
        origin = tuple(-b / 2 + s / 2 for b, s in zip(box, spacing))
        return cls(dims, spacing, origin)

    @property
    def p(self):
        return len(self.dims)

    @property
    def cell_volume(self):
        return math.prod(self.spacing)

    def axis_coords(self, axis):
        """1-d array of cell-center coordinates along one axis."""
        return self.origin[axis] + self.spacing[axis] * np.arange(self.dims[axis])

    def _rows(self):
        """The cell-center coordinates as an open mesh: p arrays, the `axis`
        one holding axis_coords(axis) along that axis and of length 1 along
        the others (np.ix_), so any elementwise formula in them broadcasts
        to dims with no grid-sized coordinate array made or kept."""
        return np.ix_(*map(self.axis_coords, range(self.p)))

    @cached_property
    def _coord_powers(self):
        """The rows (1, x, x^2) of each axis's cell-center coordinates, one
        C-contiguous (3, dims[axis]) array per axis, which
        momenta._plane_moments, their one reader, contracts every density
        plane with."""
        return tuple(np.array([x ** 0, x, x * x]) for x in map(self.axis_coords, range(self.p)))

    def radius(self):
        """Distance of every cell center from the coordinate origin."""
        return np.sqrt(sum(x * x for x in self._rows()))

    def boundary_slabs(self):
        """The 2p index tuples of the BOUNDARY_LAYER slabs, the first and the
        last along each axis; together they cover the boundary layer."""
        return tuple(_along(axis, self.p)(sl)
                     for axis, d in enumerate(self.dims)
                     for sl in (slice(0, BOUNDARY_LAYER), slice(d - BOUNDARY_LAYER, None)))

    def boundary_mask(self):
        """Boolean mask of the BOUNDARY_LAYER cells next to any face."""
        mask = np.zeros(self.dims, dtype=bool)
        for slab in self.boundary_slabs():
            mask[slab] = True
        return mask

    def half_widths(self):
        """Half the box extent per axis (box spans cell edges)."""
        return tuple(d * s / 2 for d, s in zip(self.dims, self.spacing))
