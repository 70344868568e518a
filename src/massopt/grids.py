"""Grids, fields, sources and measures with the discrete gradient pair.

Three grid kinds are supported:

* ``interval(a, b, n)`` -- 1-d, n cells between n+1 nodes;
* ``radial(radius, n, dimension)`` -- the n-dimensional ball with radial
  data, reduced to a weighted 1-d grid on [0, R] with cell volumes
  ``omega_{d-1} * (r_{i+1}^d - r_i^d) / d``;
* ``rectangle(ax, bx, ay, by, nx, ny)`` -- tensor grid, bilinear nodes.

Scalar fields live on nodes, vector fields and densities on cells.  The
discrete gradient maps nodes to cells; the weighted divergence is defined
as its exact transpose against nodal hat test functions, so discrete
integration by parts holds to machine precision by construction.
"""

import itertools
import json
import math
from functools import cached_property, reduce

import numpy as np

from .errors import AtomOutsideGrid, InadmissibleSource, Unbounded, UnsupportedGrid
from .formatting import FMT, read_rows, write_rows


def sphere_surface(d):
    """Surface measure of the unit (d-1)-sphere: 2 pi^(d/2) / Gamma(d/2); nan past float range."""
    try:
        return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    except OverflowError:  # Gamma(d/2) or pi^(d/2), from d = 344 on
        return math.nan


def integral(value):
    """``value`` as an int, refusing with ValueError one that is not integral.

    ``8.0`` gives 8 and a string is read by ``int``; ``8.7``, ``inf`` and
    ``nan`` are refused instead of truncated.
    """
    try:
        n = int(value)
    except OverflowError:
        n = None
    if n is None or (n != value and not isinstance(value, str)):
        raise ValueError("%r is not an integer" % (value,))
    return n


# The keys of each grid kind, with their conversions; an integer must be >= 1.
GRID_KEYS = {
    "interval": {"a": float, "b": float, "n": integral},
    "radial": {"radius": float, "n": integral, "dimension": integral},
    "rectangle": {"ax": float, "bx": float, "ay": float, "by": float,
                  "nx": integral, "ny": integral},
}


def _midpoints(axes):
    """Each axis' cell midpoints."""
    return [0.5 * (x[:-1] + x[1:]) for x in axes]


def _product(arrays):
    """Every point of the product of per-axis arrays, one row each, the first axis fastest."""
    dim = len(arrays)
    points = np.empty([a.size for a in arrays[::-1]] + [dim])
    for k, a in enumerate(arrays):
        points[..., k] = a.reshape((-1,) + (1,) * k)
    return points.reshape(-1, dim)


def _flat_product(per_axis, sizes):
    """Flat ``(index, weight)`` pairs of per-axis ones on axes of ``sizes``; weights multiply."""
    out, stride = [(0, 1.0)], 1
    for pairs, size in zip(per_axis, sizes):
        out = [(j + i * stride, w * f) for i, f in pairs for j, w in out]
        stride *= size
    return out


class CellCorners:
    """A grid's cell corners, the one definition of its Q1 cell gradient (:attr:`Grid.corners`).

    Corner ``c``, numbered x fastest, sits at ``offsets[c]``, ``o_k = (c >>
    k) & 1`` along axis ``k``; ``nodes[c]`` slices it on every cell from
    the nodal array shaped ``node_shape``.  Its hat gradient along axis
    ``k`` is ``(2 o_k - 1) / scale[k]`` per cell, ``scale[k] = 2^(dim-1)
    h_k``.  ``edges[k]`` pairs each corner with ``o_k = 1`` with the one
    below it along axis ``k``, ``opposite`` each with ``o_0 = 1``, the last
    first, with the one opposite it: on one or two axes a zero cell
    gradient is a cell whose opposite corners agree.
    """

    def __init__(self, grid):
        n, dim = 1 << grid.dim, grid.dim
        self.node_shape = tuple(x.size for x in grid.axes[::-1])
        self.cell_shape = tuple(h.size for h in grid.widths[::-1])
        self.offsets = [o[::-1] for o in itertools.product((0, 1), repeat=dim)]
        self.nodes = [tuple(slice(o, o + m) for o, m in zip(o[::-1], self.cell_shape))
                      for o in self.offsets]
        self.scale = [(2.0 ** (dim - 1) * h).reshape((-1,) + (1,) * k)
                      for k, h in enumerate(grid.widths)]
        self.edges = [[(self.nodes[c], self.nodes[c - (1 << k)]) for c in range(n) if c >> k & 1]
                      for k in range(dim)]
        self.opposite = [(self.offsets[c], self.nodes[c], self.nodes[n - 1 - c])
                         for c in range(n - 1, 0, -2)]


class Grid:
    """Structured grid, the product of its axes; immutable.

    ``axes`` holds each axis' nodes (x, then y on a rectangle), ``widths``
    its cell widths and ``ends`` which of its two ends is boundary: only
    ``R`` on a radial grid.  Nodes and cells run the first axis fastest.
    Coordinates, the boundary mask, nodal weights and point location follow
    from the axes by one rule.  ``params`` holds the keys of ``kind`` in
    :data:`GRID_KEYS`, converted.  Every axis' nodes must be finite and
    strictly increasing, and every cell volume finite and positive; a grid
    that breaks a rule raises UnsupportedGrid.
    """

    def __init__(self, kind, params):
        keys = GRID_KEYS.get(kind)
        if keys is None:
            raise UnsupportedGrid("unknown grid kind %r" % kind)
        if params.keys() != keys.keys():
            odd = min(params.keys() ^ keys.keys())
            raise UnsupportedGrid("%s grid %s key %r"
                                  % (kind, "needs" if odd in keys else "takes no", odd))
        self.kind, self.params = kind, {}
        for key, convert in keys.items():
            try:
                value = self.params[key] = convert(params[key])
            except (TypeError, ValueError):
                raise UnsupportedGrid("%s grid: bad value %r for key %r"
                                      % (kind, params[key], key)) from None
            if convert is integral and value < 1:
                raise UnsupportedGrid("%s grid needs %s >= 1" % (kind, key))
        p = self.params
        # numpy refuses a size it cannot hold (ValueError, MemoryError), and an
        # exponent past float range (OverflowError)
        try:
            # an overflow or a nan here breaks a rule below; min and max keep a nan
            with np.errstate(over="ignore", invalid="ignore"):
                if kind == "rectangle":
                    self.ball_dim, self.ends = 2, ((True, True), (True, True))
                    self.axes = (np.linspace(p["ax"], p["bx"], p["nx"] + 1),
                                 np.linspace(p["ay"], p["by"], p["ny"] + 1))
                    self.widths = (np.full(p["nx"], (p["bx"] - p["ax"]) / p["nx"]),
                                   np.full(p["ny"], (p["by"] - p["ay"]) / p["ny"]))
                else:
                    a, b, self.ball_dim = ((p["a"], p["b"], 1) if kind == "interval"
                                           else (0.0, p["radius"], p["dimension"]))
                    self.axes = (np.linspace(a, b, p["n"] + 1),)
                    self.widths = (np.diff(self.axes[0]),)
                    # both ends of an interval; r = 0 is an interior point of the ball
                    self.ends = ((kind == "interval", True),)
                if kind == "radial":
                    r, d = self.axes[0], self.ball_dim
                    self.cell_volumes = sphere_surface(d) * (r[1:] ** d - r[:-1] ** d) / d
                else:
                    self.cell_volumes = reduce(np.multiply.outer, self.widths[::-1]).ravel()
                for x in self.axes:
                    # increasing between finite ends, so finite throughout
                    if not (math.isfinite(x[0]) and math.isfinite(x[-1])
                            and np.count_nonzero(x[1:] > x[:-1]) == x.size - 1):
                        raise UnsupportedGrid("%s grid needs finite, strictly increasing nodes "
                                              "on every axis" % kind)
                if not 0.0 < self.cell_volumes.min() <= self.cell_volumes.max() < math.inf:
                    raise UnsupportedGrid("%s grid cells need finite positive volumes" % kind)

            self.dim = len(self.axes)
            self.node_coords = _product(self.axes)
            self.n_nodes = self.node_coords.shape[0]
            self.n_cells = self.cell_volumes.shape[0]

            # a node is on the boundary when it sits at a boundary end of any axis
            on_ends = [np.zeros(x.size, dtype=bool) for x in self.axes]
            for on, (lo, hi) in zip(on_ends, self.ends):
                on[0], on[-1] = lo, hi
            self.boundary_mask = reduce(np.logical_or.outer, on_ends[::-1]).ravel()
            self.interior_idx = np.nonzero(~self.boundary_mask)[0]
        except (ValueError, OverflowError, MemoryError) as exc:
            raise UnsupportedGrid("%s grid cannot be built: %s" % (kind, exc)) from None

    # -- basic structure -----------------------------------------------------

    @cached_property
    def cell_centers(self):
        """Cell centres, the product of each axis' midpoints; built on first read."""
        return _product(_midpoints(self.axes))

    @cached_property
    def node_weights(self):
        """Nodal weights, half of each cell next to a node along every axis; built on first read."""
        t = self.corners
        share = 0.5 ** self.dim * self.cell_volumes.reshape(t.cell_shape)
        weights = np.zeros(t.node_shape)
        for nodes in t.nodes:
            weights[nodes] += share
        return weights.ravel()

    @cached_property
    def corners(self):
        """The :class:`CellCorners` every cell stencil of this grid reads; built on first read."""
        return CellCorners(self)

    def header(self):
        items = " ".join("%s=%s" % (k, FMT % v if isinstance(v, float) else v)
                         for k, v in sorted(self.params.items()))
        return "# grid: %s %s" % (self.kind, items)

    def __repr__(self):
        return "Grid(%s, %s)" % (self.kind, self.params)

    # -- gradient / adjoint ----------------------------------------------------

    def gradient_apply(self, u):
        """Per-cell gradient of nodal values; shape (n_cells, dim).

        Along axis ``k`` a cell sums the differences of its edges
        (:attr:`CellCorners.edges`) in corner order and divides by ``scale[k]``.
        """
        t = self.corners
        u = np.asarray(u, dtype=float).reshape(t.node_shape)
        g = np.empty((self.n_cells, self.dim))
        for k, (((upper, lower), *rest), scale) in enumerate(zip(t.edges, t.scale)):
            d = u[upper] - u[lower]
            for upper, lower in rest:
                d += u[upper]
                d -= u[lower]
            g[:, k] = (d / scale).ravel()
        return g

    def gradient_adjoint(self, y):
        """Exact transpose of :meth:`gradient_apply`; maps cells to nodes.

        Each pair of opposite corners (:attr:`CellCorners.opposite`) takes
        one value per cell, with opposite signs.
        """
        t = self.corners
        y = np.asarray(y, dtype=float)
        q = [y[:, k].reshape(t.cell_shape) / scale for k, scale in enumerate(t.scale)]
        out = np.zeros(t.node_shape)
        for offsets, upper, lower in t.opposite:
            v = q[0]
            for o, qk in zip(offsets[1:], q[1:]):
                v = v + qk if o else v - qk
            out[upper] += v
            out[lower] -= v
        return out.ravel()

    @cached_property
    def stiffness_layout(self):
        """The :class:`StiffnessLayout` this rectangle's stiffnesses share; built on first read."""
        return StiffnessLayout(self)

    @cached_property
    def unit_stiffness(self):
        """The :class:`UnitStiffness` solve of this rectangle; built on first read."""
        return UnitStiffness(self)

    # -- point location ----------------------------------------------------------

    def _per_axis(self, point):
        """A point's coordinate on each axis, with that axis' nodes, widths and boundary ends."""
        return zip(np.atleast_1d(np.asarray(point, dtype=float)), self.axes, self.widths,
                   self.ends)

    def contains_interior(self, point):
        """Whether a point lies in the closed domain off every axis' boundary ends."""
        return all((x[0] < p if lo else x[0] <= p) and (p < x[-1] if hi else p <= x[-1])
                   for p, x, _h, (lo, hi) in self._per_axis(point))

    def hat_weights(self, point):
        """Nodal interpolation weights at a point: the product of each axis' linear hats.

        An axis takes the cell right of a node, and its end cell outside it.
        """
        per_axis = []
        for p, x, h, _ends in self._per_axis(point):
            i = min(max(int(np.searchsorted(x, p, side="right")) - 1, 0), h.size - 1)
            lam = (p - x[i]) / h[i]
            per_axis.append(((i, 1.0 - lam), (i + 1, lam)))
        return _flat_product(per_axis, [x.size for x in self.axes])

    def cell_weights_at(self, point):
        """Cells carrying a point, averaged on shared faces: the product of each axis' hits.

        A point that no cell of an axis holds raises :class:`AtomOutsideGrid`.
        """
        per_axis = []
        for p, x, _h, _ends in self._per_axis(point):
            hits = np.nonzero((x[:-1] <= p) & (p <= x[1:]))[0]
            if hits.size == 0:
                raise AtomOutsideGrid("point %r outside the grid" % (point,))
            per_axis.append([(int(i), 1.0 / hits.size) for i in hits])
        return _flat_product(per_axis, [h.size for h in self.widths])


def interval_grid(a, b, n):
    return Grid("interval", {"a": a, "b": b, "n": n})


def radial_grid(radius, n, dimension):
    return Grid("radial", {"radius": radius, "n": n, "dimension": dimension})


def rectangle_grid(ax, bx, ay, by, nx, ny):
    return Grid("rectangle", {"ax": ax, "bx": bx, "ay": ay, "by": by, "nx": nx, "ny": ny})


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class ScalarField:
    """Nodal scalar values on a grid."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_nodes,):
            raise ValueError("scalar field needs %d nodal values" % grid.n_nodes)
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.n_nodes))


class VectorField:
    """Per-cell vector values on a grid (the radial grid stores d/dr)."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape != (grid.n_cells, grid.dim):
            raise ValueError("vector field needs shape (%d, %d)" % (grid.n_cells, grid.dim))
        self.grid = grid
        self.values = values

    def at_point(self, point):
        """Cell-value lookup with averaging when the point sits on a face."""
        return sum(w * self.values[i] for i, w in self.grid.cell_weights_at(point))


# ---------------------------------------------------------------------------
# sources and measures
# ---------------------------------------------------------------------------

def _atom_location(grid, loc):
    """An atom's location as an array of the grid's ``dim`` coordinates."""
    loc = np.atleast_1d(np.asarray(loc, dtype=float))
    if loc.shape != (grid.dim,):
        raise AtomOutsideGrid("atom at %r needs %d coordinate(s) on a %s grid"
                              % (loc.tolist(), grid.dim, grid.kind))
    return loc


class SourceTerm:
    """Signed source: nodal density plus point atoms.

    The pairing ``<f, u> = F . u`` with the load vector ``F``
    (:meth:`load_vector`) integrates the density with trapezoidal nodal
    weights and evaluates atoms through multilinear interpolation, so it is
    exactly linear in ``u``.  A density not of one value per node, and a
    value or atom mass that is not finite, raise :class:`InadmissibleSource`.
    """

    def __init__(self, grid, density=None, atoms=()):
        self.grid = grid
        if density is None:
            self.density = None
        else:
            density = np.asarray(density, dtype=float)
            if density.shape != (grid.n_nodes,):
                raise InadmissibleSource("source density needs %d nodal values" % grid.n_nodes)
            if not np.all(np.isfinite(density)):
                raise InadmissibleSource("source density is not finite everywhere")
            self.density = density
        self.atoms = []
        for loc, mass in atoms:
            loc, mass = _atom_location(grid, loc), float(mass)
            if not grid.contains_interior(loc):
                raise AtomOutsideGrid("source atom at %r is not strictly inside" % (loc,))
            if not math.isfinite(mass):
                raise InadmissibleSource("source atom mass %r is not finite" % mass)
            self.atoms.append((loc, mass))
        self._load = None

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, density=np.full(grid.n_nodes, float(value)))

    def load_vector(self):
        """Nodal load ``F_j = <f, hat_j>``; cached."""
        if self._load is None:
            F = np.zeros(self.grid.n_nodes)
            if self.density is not None:
                F += self.density * self.grid.node_weights
            for loc, mass in self.atoms:
                for j, w in self.grid.hat_weights(loc):
                    F[j] += mass * w
            self._load = F
        return self._load


class DiscreteMeasure:
    """Nonnegative measure: per-cell density plus positive atoms.

    Atoms are the only singular parts representable here.  ``boundary_mass``
    is the mass of the atoms on the boundary, those the grid does not
    contain in its interior (:meth:`Grid.contains_interior`); it must
    vanish for optimal measures.
    """

    def __init__(self, grid, ac_density, atoms=()):
        ac = np.asarray(ac_density, dtype=float)
        if ac.shape != (grid.n_cells,):
            raise ValueError("density needs %d per-cell values" % grid.n_cells)
        if np.any(ac < 0.0):
            raise ValueError("density must be nonnegative")
        self.grid = grid
        self.ac_density = ac
        self.atoms = []
        for loc, mass in atoms:
            loc = _atom_location(grid, loc)
            if not 0.0 < mass < math.inf:
                raise ValueError("atom masses must be finite and positive")
            # placement is validated against the closed domain
            grid.cell_weights_at(loc)
            self.atoms.append((loc, float(mass)))
        self.boundary_mass = sum((mass for loc, mass in self.atoms
                                  if not grid.contains_interior(loc)), 0.0)

    @cached_property
    def cell_mass(self):
        """Each cell's mass ``vol * a`` with the atoms folded in (:func:`with_atoms`)."""
        return with_atoms(self.grid, self.grid.cell_volumes * self.ac_density, self.atoms)


def divergence_weighted(mu, sigma):
    """Weak divergence of ``mu * sigma`` against nodal hat test functions.

    Returns the nodal vector ``<div(mu sigma), hat_j> = -int sigma . grad
    hat_j dmu``; exact transpose of the discrete gradient, so discrete
    integration by parts is machine-exact.  Each cell weighs the flux on it
    by its mass (:attr:`DiscreteMeasure.cell_mass`), so an atom acts
    through its share of each cell carrying it, as in the energy.  The flux
    must live on a grid of the measure's kind and parameters.
    """
    grid = mu.grid
    if (sigma.grid.kind, sigma.grid.params) != (grid.kind, grid.params):
        raise UnsupportedGrid("measure and flux live on different grids")
    return -grid.gradient_adjoint(sigma.values * mu.cell_mass[:, None])


# The local pairs (a, b) of a cell's corners (CellCorners) in the order they
# are added to the band.  A band entry that several cells share gets their
# pairs in ascending cell order: a node's diagonal from the cells below
# left, below right, above left and above right of it, (3, 3) to (0, 0); the
# edge along x from the cell below it, then above, (2, 3) then (0, 1); the
# edge along y from the cell left of it, then right, (1, 3) then (0, 2).  The
# diagonals (0, 3) and (1, 2) each come from one cell.
_PAIRS = ((3, 3), (2, 2), (1, 1), (0, 0), (2, 3), (0, 1), (1, 3), (0, 2), (0, 3), (1, 2))


class StiffnessLayout:
    """Where each cell's local stiffness block lands in a rectangle's interior band.

    Every stiffness of a rectangle has the same sparsity pattern, so its
    layout is computed once per grid (:attr:`Grid.stiffness_layout`); a 1-d
    grid has none and raises :class:`UnsupportedGrid`.  The interior nodes
    are numbered along the shorter side (row by row when ``nx <= ny``,
    column by column otherwise), so the band is ``min(nx, ny)`` wide.
    ``pos[k]`` is the band position of interior node ``k``, ``order`` its
    inverse (``None`` when the two numberings agree), and ``band_rows`` is
    the half-bandwidth plus one.  The band is LAPACK's lower band storage,
    ``band[i - j, j] = K[i, j]``.

    A cell's local block couples its 4 corners through their hat gradients
    ``C`` on it (``2 x 4``, :class:`CellCorners`): the block is ``C^T B C``
    for the cell's weight ``B``.  The slot table holds, for each local pair
    ``(a, b)`` of corners in ``_PAIRS`` order and each cell, the index of
    that entry in the Fortran-flattened band, read off the corners' band
    positions, or one past the end where a corner is on the boundary.
    :meth:`band` adds every entry to its slot in one ``np.bincount``, which
    adds in array order, so a band entry that several cells share sums them
    in ascending cell order.
    """

    def __init__(self, grid):
        if grid.kind != "rectangle":
            raise UnsupportedGrid("a stiffness band is built on rectangles only, "
                                  "not on a %s grid" % grid.kind)
        nx, ny = grid.params["nx"], grid.params["ny"]
        n = grid.interior_idx.size
        pos = np.arange(n)
        if nx > ny:
            # number along y
            pos = pos.reshape(nx - 1, ny - 1).T.ravel()
        self.n = n
        self.pos = pos
        self.order = None if np.array_equal(pos, np.arange(n)) else np.argsort(pos)
        corners = grid.corners
        # each node's band position, -1 on the boundary, then each corner's on every cell
        at = np.full(grid.n_nodes, -1)
        at[grid.interior_idx] = pos
        at = np.stack([at.reshape(corners.node_shape)[nodes].ravel() for nodes in corners.nodes])
        # each pair's entry sits at its lower-numbered node, ``rows`` rows below it
        first, second = at[np.transpose(_PAIRS)]
        low, rows = np.minimum(first, second), np.abs(first - second)
        self.band_rows = int(np.max(rows, where=low >= 0, initial=0)) + 1
        self._slots = np.where(low >= 0, rows + self.band_rows * low, self.band_rows * n).ravel()
        # each corner's hat gradients, one value per axis: the axes are uniform
        hats = [[(2 * o - 1) / h.flat[0] for o, h in zip(offsets, corners.scale)]
                for offsets in corners.offsets]
        # per pair, the products of the hat gradients on a cell, shared by
        # pairs with equal products: the three parts of a symmetric 2x2 tensor weight
        self._parts, tensors = [], {}
        for a, b in _PAIRS:
            (ax, ay), (bx, by) = hats[a], hats[b]
            parts = (ax * bx, ax * by + ay * bx, ay * by)
            self._parts.append(tensors.setdefault(parts, len(tensors)))
        self._tensors = list(tensors)
        # the block of a unit scalar weight: the trace of the tensor parts
        self._units = [xx + yy for xx, _xy, yy in self._tensors]

    def band(self, w):
        """Lower band of the stiffness ``G^T B G`` on the interior nodes.

        ``w`` holds either one weight per cell, shape ``(n_cells,)`` (cell
        volume times conductivity for a Dirichlet energy, atoms folded in by
        :func:`with_atoms`; ``B`` repeats it on every gradient component),
        or the three parts ``(B_xx, B_xy, B_yy)`` of one symmetric 2x2
        tensor per cell, each of shape ``(n_cells,)`` (``B`` couples the x
        and y gradients of the cell, as in a Hessian).  The band is
        Fortran-ordered, so :meth:`factor` factors it in place.
        """
        if isinstance(w, tuple):
            bxx, bxy, byy = (np.asarray(p, dtype=float) for p in w)
            vals = []
            for xx, xy, yy in self._tensors:
                v = bxx * xx
                v += bxy * xy
                v += byy * yy
                vals.append(v)
        else:
            w = np.asarray(w, dtype=float)
            vals = [w * unit for unit in self._units]
        size = self.band_rows * self.n
        band = np.bincount(self._slots, weights=np.concatenate([vals[p] for p in self._parts]),
                           minlength=size + 1)
        return band[:size].reshape((self.band_rows, self.n), order="F")

    def factor(self, band, pinned=()):
        """Banded Cholesky factor of a band from :meth:`band`, which it overwrites.

        ``pinned`` interior nodes become unit rows decoupled from the rest,
        so a right-hand side that vanishes there fixes them at zero.  One
        LAPACK ``pbtrf`` factorisation.  A pivot that is not positive means
        the stiffness is singular to working precision; the quadratic
        energy it defines then has no computable minimum, and
        :class:`Unbounded` is raised.
        """
        # imported here, so that a 1-d run loads no scipy
        from scipy.linalg import LinAlgError, cholesky_banded

        p = self.pos[np.asarray(pinned, dtype=int)]
        if p.size:
            # column p below the diagonal, then row p left of it: band[r, p - r]
            band[:, p] = 0.0
            band[0, p] = 1.0
            r, c = np.broadcast_arrays(np.arange(1, self.band_rows),
                                       p[:, None] - np.arange(1, self.band_rows))
            band[r[c >= 0], c[c >= 0]] = 0.0
        try:
            band = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
        except LinAlgError as exc:
            raise Unbounded("stiffness is singular to working precision: %s" % exc) from None
        return BandCholesky(band, self.order)


def with_atoms(grid, w, atoms):
    """Per-cell weights ``w`` with the point stiffness of each atom folded in.

    An atom ``(location, mass)`` adds the point stiffness of the hat
    gradients on the cells carrying it.  The hat gradients are constant on
    a cell, so that is the cell's stiffness at weight ``mass`` times the
    cell's share of the atom.
    """
    if not atoms:
        return w
    extra = np.zeros(grid.n_cells)
    for loc, mass in atoms:
        for i, cw in grid.cell_weights_at(loc):
            extra[i] += mass * cw
    return w + extra


def stiffness_factor(grid, w, pinned=()):
    """Factor of the stiffness ``G^T B G``; ``.solve(b)`` solves with it.

    The stiffness of the cell weights ``w`` is assembled straight into its
    band (:meth:`StiffnessLayout.band`) and factored by banded Cholesky
    (:meth:`StiffnessLayout.factor`, which makes the ``pinned`` interior
    nodes unit rows and raises :class:`Unbounded` for a stiffness singular
    to working precision).
    """
    layout = grid.stiffness_layout
    return layout.factor(layout.band(w), pinned)


class BandCholesky:
    """Cholesky factor of a symmetric positive definite band matrix.

    ``band`` holds the lower factor in LAPACK's lower band storage,
    ``band[i - j, j] = L[i, j]``; ``order``, when set, is the permutation
    the matrix was factored in: row ``k`` of the factor is row
    ``order[k]`` of the matrix.
    """

    def __init__(self, band, order):
        self.band = band
        self.order = order

    def solve(self, b):
        """The solution ``x`` of ``K x = b``."""
        from scipy.linalg import cho_solve_banded

        if self.order is None:
            return cho_solve_banded((self.band, True), b, check_finite=False)
        x = np.empty_like(b)
        x[self.order] = cho_solve_banded((self.band, True), b[self.order],
                                         check_finite=False)
        return x


class UnitStiffness:
    """Solves with a rectangle's unit-weight stiffness ``K0 = G^T G`` by sine transforms.

    On the interior ``K0 = Lx (x) My + Mx (x) Ly``, with the per-axis second
    difference ``L = tridiag(-1, 2, -1) / h^2`` and average ``M =
    tridiag(1, 2, 1) / 4``.  The DST-I basis ``S_jk = sqrt(2/m) sin(jk pi/m)``
    of an axis of ``m`` cells diagonalises both, with ``lam_k = 2 - 2 cos(k
    pi/m)`` for ``L h^2`` and ``1 - lam_k / 4`` for ``M``, so a solve is four
    small dense products: the fast diagonalisation method (Lynch, Rice and
    Thomas, Numer. Math. 6, 1964).  It takes and returns interior values in
    ``interior_idx`` order, as :meth:`BandCholesky.solve` does, and factors
    nothing.
    """

    def __init__(self, grid):
        if grid.kind != "rectangle":
            raise UnsupportedGrid("a unit stiffness is solved on rectangles only, "
                                  "not on a %s grid" % grid.kind)
        axes = []
        for m in (grid.params["ny"], grid.params["nx"]):
            k = np.arange(1, m)
            # S_jk = sines[jk mod 2m]: each of the 2m angles is evaluated once
            sines = np.sqrt(2.0 / m) * np.sin(np.pi / m * np.arange(2 * m))
            axes.append((sines[np.outer(k, k) % (2 * m)], 2.0 - 2.0 * np.cos(np.pi / m * k)))
        (self._sy, ly), (self._sx, lx) = axes
        hx, hy = (h[0] for h in grid.widths)  # the sines are those of a uniform axis
        self._eig = 0.25 * (np.outer(4.0 - ly, lx) / hx ** 2 + np.outer(ly, 4.0 - lx) / hy ** 2)

    def solve(self, b):
        """The solution ``x`` of ``K0 x = b``."""
        sy, sx = self._sy, self._sx
        return (sy @ ((sy @ b.reshape(self._eig.shape) @ sx) / self._eig) @ sx).ravel()


# ---------------------------------------------------------------------------
# CSV / JSON export
# ---------------------------------------------------------------------------

def write_iteration_log(path, log):
    """The log's ``(iteration, primal, dual, gap)`` rows as CSV."""
    with open(path, "w") as fh:
        fh.write("iteration,primal,dual,gap\n")
        write_rows(fh, np.reshape(np.array(log, dtype=float), (-1, 4)))


def _write_table(path, grid, column, points, values):
    """Header, then a row per point (node or cell centre), x fastest."""
    with open(path, "w") as fh:
        fh.write("%s\n%s\n" % (grid.header(), ",".join(["x", "y"][: grid.dim] + [column])))
        write_rows(fh, np.column_stack((points, values)))


def write_field_csv(path, field):
    _write_table(path, field.grid, "value", field.grid.node_coords, field.values)


def read_field_csv(path):
    return ScalarField(*_read_grid_csv(path))


def write_measure(path_csv, path_json, measure):
    grid = measure.grid
    _write_table(path_csv, grid, "density", grid.cell_centers, measure.ac_density)
    sidecar = {
        "atoms": [{"location": [float(c) for c in loc], "mass": mass}
                  for loc, mass in measure.atoms],
        "boundary_mass": measure.boundary_mass,
        "grid": {"kind": grid.kind, "params": grid.params},
    }
    with open(path_json, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_atom(entry):
    """Whether a sidecar entry is ``{"location": [numbers], "mass": number}`` as json reads it."""
    return (isinstance(entry, dict) and isinstance(entry.get("location"), list)
            and all(type(x) in (int, float) for x in entry["location"])
            and type(entry.get("mass")) in (int, float))


def read_measure(path_csv, path_json):
    """The density of ``path_csv`` and the atoms of its sidecar, which must name the same grid.

    The sidecar must be an object with an ``atoms`` list of numeric
    ``{location, mass}`` entries; another sidecar raises UnsupportedGrid.
    """
    grid, density = _read_grid_csv(path_csv)
    with open(path_json) as fh:
        sidecar = json.load(fh)
    atoms = sidecar.get("atoms") if isinstance(sidecar, dict) else None
    if not (isinstance(atoms, list) and all(map(_is_atom, atoms))):
        raise UnsupportedGrid("%s is not a measure sidecar: it needs an atoms list of "
                              "numeric {location, mass} entries" % path_json)
    if sidecar.get("grid") != {"kind": grid.kind, "params": grid.params}:
        raise UnsupportedGrid("%s is not of the grid of %s" % (path_json, path_csv))
    atoms = [(np.asarray(a["location"]), a["mass"]) for a in atoms]
    return DiscreteMeasure(grid, density, atoms=atoms)


def _read_grid_csv(path):
    """The grid of a CSV file's header and its last column, read by :func:`read_rows`.

    The header's ``key=value`` items are converted by :class:`Grid`.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# grid: "):
            raise UnsupportedGrid("missing grid header in %s" % path)
        fh.readline()  # column names
        values = read_rows(fh, usecols=-1, ndmin=1)
    kind, *items = header[len("# grid: "):].split()
    return Grid(kind, dict(item.partition("=")[::2] for item in items)), values
