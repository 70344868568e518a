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

import json
import math

import numpy as np

from .errors import AtomOutsideGrid, InadmissibleSource, Unbounded, UnsupportedGrid
from .formatting import FMT, write_rows


def sphere_surface(d):
    """Surface measure of the unit (d-1)-sphere: 2 pi^(d/2) / Gamma(d/2); nan past float range."""
    try:
        return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    except OverflowError:  # Gamma(d/2) or pi^(d/2), from d = 344 on
        return math.nan


def _finite(*xs):
    return all(math.isfinite(x) for x in xs)


class Grid:
    """Structured grid; immutable, every cell volume finite and positive (else UnsupportedGrid)."""

    def __init__(self, kind, params):
        self.kind = kind
        self.params = dict(params)
        if kind in ("interval", "radial"):
            if kind == "interval":
                a, b, n, d = params["a"], params["b"], params["n"], 1
                if not (_finite(a, b, b - a) and b > a and n >= 1):
                    raise UnsupportedGrid("interval needs finite a < b, b - a finite and n >= 1")
            else:
                a, b, n, d = 0.0, params["radius"], params["n"], params["dimension"]
                if not (_finite(b) and b > 0 and n >= 1 and d >= 1):
                    raise UnsupportedGrid("radial needs a finite radius > 0, n >= 1, "
                                          "dimension >= 1")
            self.dim = 1
            self.ball_dim = int(d)
            nodes = np.linspace(a, b, n + 1)
            self.nodes_1d = nodes
            self.node_coords = nodes[:, None]
            self.cell_h = np.diff(nodes)
            self.cell_volumes = self.cell_h.copy()
            if kind == "radial":
                with np.errstate(over="ignore", invalid="ignore"):  # refused below
                    self.cell_volumes = sphere_surface(d) * (nodes[1:] ** d - nodes[:-1] ** d) / d
            self.cell_centers = (0.5 * (nodes[:-1] + nodes[1:]))[:, None]
            self.boundary_mask = np.zeros(n + 1, dtype=bool)
            # both ends of an interval; r = 0 is an interior point of the ball
            self.boundary_mask[[0, -1] if kind == "interval" else -1] = True
        elif kind == "rectangle":
            ax, bx, ay, by = params["ax"], params["bx"], params["ay"], params["by"]
            nx, ny = params["nx"], params["ny"]
            if not (_finite(ax, bx, ay, by, bx - ax, by - ay) and bx > ax and by > ay
                    and nx >= 1 and ny >= 1):
                raise UnsupportedGrid("rectangle needs finite positive extents and "
                                      "resolutions")
            self.dim = 2
            self.ball_dim = 2
            self.xs = np.linspace(ax, bx, nx + 1)
            self.ys = np.linspace(ay, by, ny + 1)
            self.hx = (bx - ax) / nx
            self.hy = (by - ay) / ny
            X, Y = np.meshgrid(self.xs, self.ys)  # shape (ny+1, nx+1)
            self.node_coords = np.column_stack([X.ravel(), Y.ravel()])
            cx = 0.5 * (self.xs[:-1] + self.xs[1:])
            cy = 0.5 * (self.ys[:-1] + self.ys[1:])
            CX, CY = np.meshgrid(cx, cy)
            self.cell_centers = np.column_stack([CX.ravel(), CY.ravel()])
            self.cell_volumes = np.full(nx * ny, self.hx * self.hy)
            mask = np.zeros((ny + 1, nx + 1), dtype=bool)
            mask[0, :] = mask[-1, :] = True
            mask[:, 0] = mask[:, -1] = True
            self.boundary_mask = mask.ravel()
        else:
            raise UnsupportedGrid("unknown grid kind %r" % kind)

        self.n_nodes = self.node_coords.shape[0]
        self.n_cells = self.cell_volumes.shape[0]
        if not np.all(np.isfinite(self.cell_volumes) & (self.cell_volumes > 0.0)):
            raise UnsupportedGrid("%s grid cells need finite positive volumes" % kind)
        self.interior_idx = np.nonzero(~self.boundary_mask)[0]
        self.node_weights = self._nodal_weights()
        self._layout = None

    # -- basic structure -----------------------------------------------------

    def _nodal_weights(self):
        w = np.zeros(self.n_nodes)
        if self.dim == 1:
            w[:-1] += 0.5 * self.cell_volumes
            w[1:] += 0.5 * self.cell_volumes
        else:
            nx, ny = self.params["nx"], self.params["ny"]
            w2 = np.zeros((ny + 1, nx + 1))
            q = 0.25 * self.cell_volumes.reshape(ny, nx)
            w2[:-1, :-1] += q
            w2[:-1, 1:] += q
            w2[1:, :-1] += q
            w2[1:, 1:] += q
            w = w2.ravel()
        return w

    def header(self):
        items = " ".join("%s=%s" % (k, FMT % v if isinstance(v, float) else v)
                         for k, v in sorted(self.params.items()))
        return "# grid: %s %s" % (self.kind, items)

    def __repr__(self):
        return "Grid(%s, %s)" % (self.kind, self.params)

    # -- gradient / adjoint ----------------------------------------------------

    def gradient_apply(self, u):
        """Per-cell gradient of nodal values; shape (n_cells, dim)."""
        u = np.asarray(u, dtype=float)
        if self.dim == 1:
            return ((u[1:] - u[:-1]) / self.cell_h)[:, None]
        nx, ny = self.params["nx"], self.params["ny"]
        u2 = u.reshape(ny + 1, nx + 1)
        gx = (u2[:-1, 1:] - u2[:-1, :-1] + u2[1:, 1:] - u2[1:, :-1]) / (2.0 * self.hx)
        gy = (u2[1:, :-1] - u2[:-1, :-1] + u2[1:, 1:] - u2[:-1, 1:]) / (2.0 * self.hy)
        return np.column_stack([gx.ravel(), gy.ravel()])

    def gradient_adjoint(self, y):
        """Exact transpose of :meth:`gradient_apply`; maps cells to nodes."""
        y = np.asarray(y, dtype=float)
        out = np.zeros(self.n_nodes)
        if self.dim == 1:
            q = y[:, 0] / self.cell_h
            out[1:] += q
            out[:-1] -= q
            return out
        nx, ny = self.params["nx"], self.params["ny"]
        qx = (y[:, 0] / (2.0 * self.hx)).reshape(ny, nx)
        qy = (y[:, 1] / (2.0 * self.hy)).reshape(ny, nx)
        # each corner of a cell takes qx and qy with its own pair of signs
        p, m = qx + qy, qx - qy
        o2 = np.zeros((ny + 1, nx + 1))
        o2[1:, 1:] += p
        o2[:-1, :-1] -= p
        o2[:-1, 1:] += m
        o2[1:, :-1] -= m
        return o2.ravel()

    def stiffness_layout(self):
        """The :class:`StiffnessLayout` every stiffness of this rectangle uses; built once."""
        if self._layout is None:
            self._layout = StiffnessLayout(self)
        return self._layout

    # -- point location ----------------------------------------------------------

    def contains_interior(self, point):
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if self.kind == "interval":
            return self.params["a"] < p[0] < self.params["b"]
        if self.kind == "radial":
            return 0.0 <= p[0] < self.params["radius"]
        return (self.params["ax"] < p[0] < self.params["bx"]
                and self.params["ay"] < p[1] < self.params["by"])

    def hat_weights(self, point):
        """Nodal interpolation weights (multilinear hats) at a point."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if self.dim == 1:
            x = p[0]
            i = int(np.clip(np.searchsorted(self.nodes_1d, x, side="right") - 1,
                            0, self.n_cells - 1))
            lam = (x - self.nodes_1d[i]) / self.cell_h[i]
            return [(i, 1.0 - lam), (i + 1, lam)]
        nx = self.params["nx"]
        ix = int(np.clip(np.searchsorted(self.xs, p[0], side="right") - 1, 0, nx - 1))
        iy = int(np.clip(np.searchsorted(self.ys, p[1], side="right") - 1,
                         0, self.params["ny"] - 1))
        lx = (p[0] - self.xs[ix]) / self.hx
        ly = (p[1] - self.ys[iy]) / self.hy
        base = iy * (nx + 1) + ix
        return [(base, (1 - lx) * (1 - ly)), (base + 1, lx * (1 - ly)),
                (base + nx + 1, (1 - lx) * ly), (base + nx + 2, lx * ly)]

    def cell_weights_at(self, point):
        """Cells carrying a point, with averaging weights on shared faces."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if self.dim == 1:
            x = p[0]
            hits = np.nonzero((self.nodes_1d[:-1] <= x) & (x <= self.nodes_1d[1:]))[0]
            hits = [int(i) for i in hits]
            if not hits:
                raise AtomOutsideGrid("point %r outside the grid" % (point,))
            w = 1.0 / len(hits)
            return [(i, w) for i in hits]
        nx = self.params["nx"]
        ix_hits = np.nonzero((self.xs[:-1] <= p[0]) & (p[0] <= self.xs[1:]))[0]
        iy_hits = np.nonzero((self.ys[:-1] <= p[1]) & (p[1] <= self.ys[1:]))[0]
        if ix_hits.size == 0 or iy_hits.size == 0:
            raise AtomOutsideGrid("point %r outside the grid" % (point,))
        w = 1.0 / (ix_hits.size * iy_hits.size)
        return [(int(iy) * nx + int(ix), w) for iy in iy_hits for ix in ix_hits]


def interval_grid(a, b, n):
    return Grid("interval", {"a": float(a), "b": float(b), "n": int(n)})


def radial_grid(radius, n, dimension):
    return Grid("radial", {"radius": float(radius), "n": int(n),
                           "dimension": int(dimension)})


def rectangle_grid(ax, bx, ay, by, nx, ny):
    return Grid("rectangle", {"ax": float(ax), "bx": float(bx), "ay": float(ay),
                              "by": float(by), "nx": int(nx), "ny": int(ny)})


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

    def magnitudes(self):
        return np.sqrt(np.sum(self.values ** 2, axis=1))

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
    exactly linear in ``u``.  A density value or atom mass that is not
    finite raises :class:`InadmissibleSource`.
    """

    def __init__(self, grid, density=None, atoms=()):
        self.grid = grid
        if density is None:
            self.density = None
        else:
            density = np.asarray(density, dtype=float)
            if density.shape != (grid.n_nodes,):
                raise ValueError("source density needs %d nodal values" % grid.n_nodes)
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

    Atoms are the only singular parts representable here; ``boundary_mass``
    is a diagnostic that must vanish for optimal measures.
    """

    def __init__(self, grid, ac_density, atoms=(), boundary_mass=0.0):
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
        self.boundary_mass = float(boundary_mass)


def divergence_weighted(mu, sigma):
    """Weak divergence of ``mu * sigma`` against nodal hat test functions.

    Returns the nodal vector ``<div(mu sigma), hat_j> = -int sigma . grad
    hat_j dmu``; exact transpose of the discrete gradient, so discrete
    integration by parts is machine-exact.  An atom adds its mass times the
    flux at its location to the weighted flux of each cell carrying it.
    The flux must live on a grid of the measure's kind and parameters.
    """
    grid = mu.grid
    if (sigma.grid.kind, sigma.grid.params) != (grid.kind, grid.params):
        raise UnsupportedGrid("measure and flux live on different grids")
    weighted = sigma.values * (grid.cell_volumes * mu.ac_density)[:, None]
    for loc, mass in mu.atoms:
        sig_at = sigma.at_point(loc)
        for i, w in grid.cell_weights_at(loc):
            weighted[i] += mass * w * sig_at
    return -grid.gradient_adjoint(weighted)


# A cell's local nodes as (x, y) offsets from its first node, and the local
# pairs (a, b) in the order they are added to the band.  A band entry that
# several cells share gets their pairs in ascending cell order: a node's
# diagonal from the cells below left, below right, above left and above
# right of it, (3, 3) to (0, 0); the edge along x from the cell below it,
# then above, (2, 3) then (0, 1); the edge along y from the cell left of
# it, then right, (1, 3) then (0, 2).  The diagonals (0, 3) and (1, 2) each
# come from one cell.
_LOCAL = ((0, 0), (1, 0), (0, 1), (1, 1))
_PAIRS = ((3, 3), (2, 2), (1, 1), (0, 0), (2, 3), (0, 1), (1, 3), (0, 2), (0, 3), (1, 2))


def _shared(items, item):
    """The index in ``items`` of a tuple of arrays with the bits of ``item``, appended if none."""
    for k, other in enumerate(items):
        if all(x.tobytes() == y.tobytes() for x, y in zip(other, item)):
            return k
    items.append(item)
    return len(items) - 1


class StiffnessLayout:
    """Where each cell's local stiffness block lands in a rectangle's interior band.

    Every stiffness of a rectangle has the same sparsity pattern, so its
    layout is computed once per grid (:meth:`Grid.stiffness_layout`); a 1-d
    grid has none and raises :class:`UnsupportedGrid`.  The interior nodes
    are numbered along the shorter side (row by row when ``nx <= ny``,
    column by column otherwise), so the band is ``min(nx, ny)`` wide.  ``pos[k]`` is the band position
    of interior node ``k``, ``order`` its inverse (``None`` when the two
    numberings agree), and ``band_rows`` is the half-bandwidth plus one.
    The band is LAPACK's lower band storage, ``band[i - j, j] = K[i, j]``.

    A cell's local block couples its 4 nodes through the hat gradients
    ``C`` on it (``2 x 4``): the block is ``C^T B C`` for the cell's weight
    ``B``.  A local pair ``(a, b)`` of nodes is the same number of band
    positions apart in every cell, so all its entries fall on one band
    diagonal.  Read as a grid of interior nodes, the diagonal takes them in
    a block, from a block of the grid of cells: those whose pair is
    interior.  The slice plan holds the diagonal and the two blocks of each
    of the 10 pairs, so :meth:`band` adds each pair's values to its
    diagonal in one 2-d slice-add, and a band entry that several cells
    share sums them in ascending cell order.  The band is the only form a
    stiffness takes; products with the gradient and its transpose are the
    stencils :meth:`Grid.gradient_apply` and :meth:`Grid.gradient_adjoint`.
    """

    def __init__(self, grid):
        if grid.kind != "rectangle":
            raise UnsupportedGrid("a stiffness band is built on rectangles only, "
                                  "not on a %s grid" % grid.kind)
        nx, ny = grid.params["nx"], grid.params["ny"]
        n = grid.interior_idx.size
        grads = np.array([[-1.0, 1.0, -1.0, 1.0], [-1.0, -1.0, 1.0, 1.0]]).T / [
            2.0 * grid.hx, 2.0 * grid.hy]
        transposed = nx > ny
        pos = np.arange(n)
        if transposed:
            # number along y: the plan works on (x, y) grids
            pos = pos.reshape(nx - 1, ny - 1).T.ravel()
        self.n = n
        self.pos = pos
        self.order = None if np.array_equal(pos, np.arange(n)) else np.argsort(pos)
        # cells along the plan's two axes; along m cells nodes 1..m-1 are interior
        self._cells = (nx, ny) if transposed else (ny, nx)
        self._nodes = tuple(m - 1 for m in self._cells)
        self._transposed = transposed
        # per pair: its band diagonal, the block of that diagonal and the
        # block of cells that adds to it, and the products of the hat
        # gradients on a cell, shared by pairs with equal products: the
        # block of a unit scalar weight, and the three parts of a symmetric
        # 2x2 tensor weight
        self._plan, self._units, self._tensors = [], [], []
        for a, b in _PAIRS:
            offs = list(zip(_LOCAL[a], _LOCAL[b]))
            offs = offs if transposed else offs[::-1]
            # the cells along each axis whose nodes at offsets da and db are interior
            cells = [(1 - min(da, db), m - max(da, db)) for m, (da, db) in zip(self._cells, offs)]
            if any(start >= stop for start, stop in cells):
                continue  # no cell has both nodes inside
            step = (offs[0][1] - offs[0][0]) * self._nodes[1] + offs[1][1] - offs[1][0]
            # the pair's entry sits at its lower-numbered node
            low = [da if step >= 0 else db for da, db in offs]
            dst = tuple(slice(start + d - 1, stop + d - 1) for (start, stop), d in zip(cells, low))
            src = tuple(slice(start, stop) for start, stop in cells)
            ca, cb = grads[a], grads[b]
            unit = _shared(self._units, (np.sum(ca * cb, axis=0),))
            tensor = _shared(self._tensors, (ca[0] * cb[0], ca[0] * cb[1] + ca[1] * cb[0],
                                             ca[1] * cb[1]))
            self._plan.append((abs(step), dst, src, unit, tensor))
        self.band_rows = max((r for r, _, _, _, _ in self._plan), default=0) + 1

    def _on_cells(self, w):
        """Per-cell values ``w`` on the plan's grid of cells, C-contiguous."""
        w = w.reshape(self._cells[::-1] if self._transposed else self._cells)
        return np.ascontiguousarray(w.T) if self._transposed else w

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
        tensor = isinstance(w, tuple)
        if tensor:
            bxx, bxy, byy = (self._on_cells(np.asarray(p, dtype=float)) for p in w)
            vals = []
            for xx, xy, yy in self._tensors:
                v = bxx * xx
                v += bxy * xy
                v += byy * yy
                vals.append(v)
        else:
            w = self._on_cells(np.asarray(w, dtype=float))
            vals = [w * unit for unit, in self._units]
        band = np.zeros((self.band_rows, self.n), order="F")
        for r, dst, src, unit, parts in self._plan:
            # band diagonal r, viewed on the plan's grid of interior nodes
            band[r].reshape(self._nodes)[dst] += vals[parts if tensor else unit][src]
        return band

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


def stiffness_factor(grid, w):
    """Factor of the stiffness ``G^T B G``; ``.solve(b)`` solves with it.

    The stiffness of the cell weights ``w`` is assembled straight into its
    band (:meth:`StiffnessLayout.band`) and factored by banded Cholesky
    (:meth:`StiffnessLayout.factor`, which raises :class:`Unbounded` for a
    stiffness singular to working precision).
    """
    layout = grid.stiffness_layout()
    return layout.factor(layout.band(w))


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


# ---------------------------------------------------------------------------
# CSV / JSON export
# ---------------------------------------------------------------------------

def _write_grid_rows(fh, xs, ys, values):
    """What :func:`write_rows` writes for the points ``(x, y)`` of ``xs x ys``, x fastest.

    Each distinct coordinate is formatted once, and the ``x,y,`` prefixes
    are joined from them into the template, so the one format operation
    formats only the values; on rectangles of rect-2d's sizes that
    is faster than :func:`write_rows` on the three columns.
    """
    xcol = [FMT % x + "," for x in xs.tolist()]
    rows = []
    for y in ys.tolist():
        tail = FMT % y + "," + FMT + "\n"
        rows.append(tail.join(xcol) + tail)
    fh.write("".join(rows) % tuple(np.asarray(values, dtype=float).tolist()))


def write_iteration_log(path, log):
    """The log's ``(iteration, primal, dual, gap)`` rows as CSV, in one format operation."""
    row = "%d" + ("," + FMT) * 3 + "\n"
    with open(path, "w") as fh:
        fh.write("iteration,primal,dual,gap\n" + row * len(log) % tuple(v for r in log for v in r))


def write_field_csv(path, field):
    grid = field.grid
    cols = ["x", "y"][: grid.dim]
    with open(path, "w") as fh:
        fh.write(grid.header() + "\n")
        fh.write(",".join(cols + ["value"]) + "\n")
        if grid.dim == 1:
            write_rows(fh, np.column_stack((grid.node_coords, field.values)))
        else:
            _write_grid_rows(fh, grid.xs, grid.ys, field.values)


def read_field_csv(path):
    grid, values = _read_grid_csv(path)
    return ScalarField(grid, values)


def write_measure(path_csv, path_json, measure):
    grid = measure.grid
    cols = ["x", "y"][: grid.dim]
    with open(path_csv, "w") as fh:
        fh.write(grid.header() + "\n")
        fh.write(",".join(cols + ["density"]) + "\n")
        if grid.dim == 1:
            write_rows(fh, np.column_stack((grid.cell_centers, measure.ac_density)))
        else:
            nx = grid.params["nx"]
            _write_grid_rows(fh, grid.cell_centers[:nx, 0], grid.cell_centers[::nx, 1],
                             measure.ac_density)
    sidecar = {
        "atoms": [{"location": [float(c) for c in loc], "mass": mass}
                  for loc, mass in measure.atoms],
        "boundary_mass": measure.boundary_mass,
        "grid": {"kind": grid.kind, "params": grid.params},
    }
    with open(path_json, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_measure(path_csv, path_json):
    grid, density = _read_grid_csv(path_csv)
    with open(path_json) as fh:
        sidecar = json.load(fh)
    atoms = [(np.asarray(a["location"]), a["mass"]) for a in sidecar.get("atoms", [])]
    return DiscreteMeasure(grid, density, atoms=atoms,
                           boundary_mass=sidecar.get("boundary_mass", 0.0))


def _read_grid_csv(path):
    """The grid of a CSV file's header and its last column, blank lines skipped.

    The body is parsed in one ``np.loadtxt`` call, which reads every number
    ``%.17g`` writes (``nan``, ``inf``, ``-0``) back to the same float.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# grid: "):
            raise UnsupportedGrid("missing grid header in %s" % path)
        fh.readline()  # column names
        lines = [line for line in fh if line.strip()]
    values = np.loadtxt(lines, delimiter=",", usecols=-1, ndmin=1)
    body = header[len("# grid: "):].split()
    kind = body[0]
    params = {}
    for item in body[1:]:
        k, v = item.split("=")
        params[k] = int(v) if k in ("n", "nx", "ny", "dimension") else float(v)
    return Grid(kind, params), values
