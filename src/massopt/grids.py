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
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import AtomOutsideGrid, Unbounded, UnsupportedGrid

_FMT = "%.17g"  # float formatting that round-trips doubles exactly


def sphere_surface(d):
    """Surface measure of the unit (d-1)-sphere: 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _finite(*xs):
    return all(math.isfinite(x) for x in xs)


class Grid:
    """Structured grid; immutable after construction."""

    def __init__(self, kind, params):
        self.kind = kind
        self.params = dict(params)
        if kind == "interval":
            a, b, n = params["a"], params["b"], params["n"]
            if not (_finite(a, b) and b > a and n >= 1):
                raise UnsupportedGrid("interval needs finite a < b and n >= 1")
            self.dim = 1
            self.ball_dim = 1
            nodes = np.linspace(a, b, n + 1)
            self.nodes_1d = nodes
            self.node_coords = nodes[:, None]
            self.cell_h = np.diff(nodes)
            self.cell_volumes = self.cell_h.copy()
            self.cell_centers = (0.5 * (nodes[:-1] + nodes[1:]))[:, None]
            self.boundary_mask = np.zeros(n + 1, dtype=bool)
            self.boundary_mask[[0, -1]] = True
            self.domain_volume = b - a
        elif kind == "radial":
            radius, n, d = params["radius"], params["n"], params["dimension"]
            if not (_finite(radius) and radius > 0 and n >= 1 and d >= 1):
                raise UnsupportedGrid("radial needs a finite radius > 0, n >= 1, "
                                      "dimension >= 1")
            self.dim = 1
            self.ball_dim = int(d)
            nodes = np.linspace(0.0, radius, n + 1)
            self.nodes_1d = nodes
            self.node_coords = nodes[:, None]
            self.cell_h = np.diff(nodes)
            omega = sphere_surface(d)
            self.cell_volumes = omega * (nodes[1:] ** d - nodes[:-1] ** d) / d
            self.cell_centers = (0.5 * (nodes[:-1] + nodes[1:]))[:, None]
            self.boundary_mask = np.zeros(n + 1, dtype=bool)
            self.boundary_mask[-1] = True  # r = 0 is an interior point of the ball
            self.domain_volume = omega * radius ** d / d
        elif kind == "rectangle":
            ax, bx, ay, by = params["ax"], params["bx"], params["ay"], params["by"]
            nx, ny = params["nx"], params["ny"]
            if not (_finite(ax, bx, ay, by) and bx > ax and by > ay and nx >= 1 and ny >= 1):
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
            self.domain_volume = (bx - ax) * (by - ay)
        else:
            raise UnsupportedGrid("unknown grid kind %r" % kind)

        self.n_nodes = self.node_coords.shape[0]
        self.n_cells = self.cell_volumes.shape[0]
        self.interior_idx = np.nonzero(~self.boundary_mask)[0]
        self.node_weights = self._nodal_weights()
        self._grad_sparse = None
        self._grad_interior = None

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
        items = " ".join("%s=%s" % (k, _FMT % v if isinstance(v, float) else v)
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
        o2 = np.zeros((ny + 1, nx + 1))
        o2[:-1, 1:] += qx
        o2[:-1, :-1] -= qx
        o2[1:, 1:] += qx
        o2[1:, :-1] -= qx
        o2[1:, :-1] += qy
        o2[:-1, :-1] -= qy
        o2[1:, 1:] += qy
        o2[:-1, 1:] -= qy
        return o2.ravel()

    def gradient_sparse(self):
        """Sparse gradient operator, shape (dim * n_cells, n_nodes)."""
        if self._grad_sparse is None:
            if self.dim == 1:
                n = self.n_cells
                inv_h = 1.0 / self.cell_h
                rows = np.concatenate([np.arange(n), np.arange(n)])
                cols = np.concatenate([np.arange(1, n + 1), np.arange(n)])
                vals = np.concatenate([inv_h, -inv_h])
                self._grad_sparse = sp.csr_matrix((vals, (rows, cols)),
                                                  shape=(n, self.n_nodes))
            else:
                nx, ny = self.params["nx"], self.params["ny"]
                n = self.n_cells
                jj, ii = np.divmod(np.arange(n), nx)
                node = lambda dy, dx: (jj + dy) * (nx + 1) + (ii + dx)
                rows, cols, vals = [], [], []
                for dy in (0, 1):
                    for dx, sgn in ((1, 1.0), (0, -1.0)):
                        rows.append(np.arange(n))
                        cols.append(node(dy, dx))
                        vals.append(np.full(n, sgn / (2.0 * self.hx)))
                for dx in (0, 1):
                    for dy, sgn in ((1, 1.0), (0, -1.0)):
                        rows.append(np.arange(n) + n)
                        cols.append(node(dy, dx))
                        vals.append(np.full(n, sgn / (2.0 * self.hy)))
                self._grad_sparse = sp.csr_matrix(
                    (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                    shape=(2 * n, self.n_nodes))
        return self._grad_sparse

    def interior_gradient(self):
        """The sparse gradient's interior-node columns, as CSR; built once.

        This is the gradient on fields that vanish on the boundary, the
        space every stiffness and flux projection works in.
        """
        if self._grad_interior is None:
            self._grad_interior = self.gradient_sparse()[:, self.interior_idx].tocsr()
        return self._grad_interior

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

    @classmethod
    def from_function(cls, grid, fn):
        vals = np.asarray([fn(p) for p in grid.node_coords], dtype=float)
        return cls(grid, vals)

    def is_zero_boundary(self, tol=0.0):
        b = self.values[self.grid.boundary_mask]
        return bool(np.all(np.abs(b) <= tol))

    def interpolate(self, point):
        return sum(w * self.values[j] for j, w in self.grid.hat_weights(point))


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


def gradient(u):
    """Discrete gradient of a nodal scalar field (per-cell values)."""
    return VectorField(u.grid, u.grid.gradient_apply(u.values))


# ---------------------------------------------------------------------------
# sources and measures
# ---------------------------------------------------------------------------

class SourceTerm:
    """Signed source: nodal density plus point atoms.

    The pairing ``<f, u>`` integrates the density with trapezoidal nodal
    weights and evaluates atoms through multilinear interpolation, so it is
    exactly linear in ``u``.
    """

    def __init__(self, grid, density=None, atoms=()):
        self.grid = grid
        if density is None:
            self.density = None
        else:
            density = np.asarray(density, dtype=float)
            if density.shape != (grid.n_nodes,):
                raise ValueError("source density needs %d nodal values" % grid.n_nodes)
            self.density = density
        self.atoms = []
        for loc, mass in atoms:
            loc = np.atleast_1d(np.asarray(loc, dtype=float))
            if not grid.contains_interior(loc):
                raise AtomOutsideGrid("source atom at %r is not strictly inside" % (loc,))
            self.atoms.append((loc, float(mass)))
        self._load = None

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, density=np.full(grid.n_nodes, float(value)))

    @classmethod
    def from_function(cls, grid, fn, atoms=()):
        dens = np.asarray([fn(p) for p in grid.node_coords], dtype=float)
        return cls(grid, density=dens, atoms=atoms)

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

    @property
    def total_mass(self):
        total = 0.0
        if self.density is not None:
            total += float(np.dot(self.density, self.grid.node_weights))
        total += sum(m for _, m in self.atoms)
        return total

    def pair(self, u):
        """The duality pairing ``<f, u>``."""
        return float(np.dot(self.load_vector(), u.values))


def pair_source(f, u):
    """``<f, u>`` by cell quadrature plus atom evaluation."""
    return f.pair(u)


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
            loc = np.atleast_1d(np.asarray(loc, dtype=float))
            if mass <= 0.0:
                raise ValueError("atom masses must be positive")
            # placement is validated against the closed domain
            grid.cell_weights_at(loc)
            self.atoms.append((loc, float(mass)))
        self.boundary_mass = float(boundary_mass)

    @classmethod
    def lebesgue(cls, grid):
        return cls(grid, np.ones(grid.n_cells))

    @property
    def total_variation(self):
        return float(np.dot(self.ac_density, self.grid.cell_volumes)
                     + sum(m for _, m in self.atoms) + self.boundary_mass)


def divergence_weighted(mu, sigma):
    """Weak divergence of ``mu * sigma`` against nodal hat test functions.

    Returns the nodal vector ``<div(mu sigma), hat_j> = -int sigma . grad
    hat_j dmu``; exact transpose of the discrete gradient, so discrete
    integration by parts is machine-exact.
    """
    grid = mu.grid
    if sigma.grid is not grid and sigma.grid.kind != grid.kind:
        raise UnsupportedGrid("measure and flux live on different grids")
    weighted = sigma.values * (grid.cell_volumes * mu.ac_density)[:, None]
    out = -grid.gradient_adjoint(weighted)
    for loc, mass in mu.atoms:
        sig_at = sigma.at_point(loc)
        for i, w in grid.cell_weights_at(loc):
            out -= mass * w * (_cell_gradient(grid, i).T @ sig_at)
    return out


def _cell_gradient(grid, cell):
    """Rows of the gradient for one cell: the hat gradients on it, (dim, n_nodes)."""
    return grid.gradient_sparse()[cell::grid.n_cells]


def stiffness(grid, w, atoms=()):
    """Stiffness ``G^T B G`` on the interior nodes, as a CSC matrix.

    ``w`` holds either one weight per cell, shape ``(n_cells,)`` (cell
    volume times conductivity for a Dirichlet energy; ``B`` repeats it on
    every gradient component), or one symmetric 2x2 tensor per cell of a
    rectangle, shape ``(n_cells, 2, 2)`` (``B`` couples the x and y rows of
    the cell, as in a Hessian).  An atom ``(location, mass)`` adds the point
    stiffness of the hat gradients on the cells carrying it.  The matrix is
    symmetric positive semidefinite for positive semidefinite weights, and
    definite when every interior node reaches the boundary through cells of
    positive definite weight.
    """
    G = grid.interior_gradient()
    w = np.asarray(w, dtype=float)
    n = grid.n_cells
    if w.ndim == 1:
        B = sp.diags(np.tile(w, grid.dim))
    else:
        B = sp.diags([w[:, 1, 0], np.concatenate([w[:, 0, 0], w[:, 1, 1]]), w[:, 0, 1]],
                     [-n, 0, n])
    K = G.T @ B @ G
    for loc, mass in atoms:
        for i, cw in grid.cell_weights_at(loc):
            Gc = G[i::n]
            K = K + mass * cw * (Gc.T @ Gc)
    return K.tocsc()


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
        if self.order is None:
            return cho_solve_banded((self.band, True), b, check_finite=False)
        x = np.empty_like(b)
        x[self.order] = cho_solve_banded((self.band, True), b[self.order],
                                         check_finite=False)
        return x


def spd_factor(K):
    """Factor a sparse symmetric positive definite ``K``; ``.solve(b)`` solves.

    One banded Cholesky factorisation (LAPACK ``pbtrf``) of the lower band
    of ``K``, whose width is read from ``K``'s own nonzeros: a 1-d
    stiffness is tridiagonal, and the interior nodes of a rectangle,
    numbered row by row, give a band ``nx`` wide.  When the reverse
    Cuthill-McKee ordering of ``K``'s graph gives a narrower band, as on a
    rectangle much wider than tall, ``K`` is factored in that order
    instead.  A pivot that is not positive means ``K`` is singular to
    working precision; the quadratic energy it defines then has no
    computable minimum, and :class:`Unbounded` is raised.
    """
    K = K.tocsc()
    n = K.shape[0]
    cols = np.repeat(np.arange(n, dtype=K.indices.dtype), np.diff(K.indptr))
    lower = K.indices >= cols
    rows, cols, vals = K.indices[lower], cols[lower], K.data[lower]
    order = None
    if n:  # the ordering needs at least one node
        perm = reverse_cuthill_mckee(K, symmetric_mode=True)
        rank = np.empty_like(perm)
        rank[perm] = np.arange(n, dtype=perm.dtype)
        prow, pcol = rank[rows], rank[cols]
        if np.max(np.abs(prow - pcol), initial=0) < np.max(rows - cols, initial=0):
            rows, cols, order = np.maximum(prow, pcol), np.minimum(prow, pcol), perm
    band = np.zeros((int(np.max(rows - cols, initial=0)) + 1, n), order="F")
    band[rows - cols, cols] = vals
    try:
        band = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise Unbounded("stiffness is singular to working precision: %s" % exc) from None
    return BandCholesky(band, order)


# ---------------------------------------------------------------------------
# CSV / JSON export
# ---------------------------------------------------------------------------

def _write_rows(fh, points, values):
    """One ``x[,y],value`` line per point, each number as ``%.17g``.

    The whole table is one format operation on a flat tuple of floats, so
    writing it allocates no per-row objects for the garbage collector.
    """
    table = np.column_stack((points, values))
    row = ",".join([_FMT] * table.shape[1]) + "\n"
    fh.write(row * table.shape[0] % tuple(table.ravel().tolist()))


def write_field_csv(path, field):
    grid = field.grid
    cols = ["x", "y"][: grid.dim]
    with open(path, "w") as fh:
        fh.write(grid.header() + "\n")
        fh.write(",".join(cols + ["value"]) + "\n")
        _write_rows(fh, grid.node_coords, field.values)


def read_field_csv(path):
    grid, values = _read_grid_csv(path)
    return ScalarField(grid, values)


def write_measure(path_csv, path_json, measure):
    grid = measure.grid
    cols = ["x", "y"][: grid.dim]
    with open(path_csv, "w") as fh:
        fh.write(grid.header() + "\n")
        fh.write(",".join(cols + ["density"]) + "\n")
        _write_rows(fh, grid.cell_centers, measure.ac_density)
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
