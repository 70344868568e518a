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
import scipy.sparse.linalg as spla

from .errors import AtomOutsideGrid, UnsupportedGrid

_FMT = "%.17g"  # float formatting that round-trips doubles exactly


def sphere_surface(d):
    """Surface measure of the unit (d-1)-sphere: 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


class Grid:
    """Structured grid; immutable after construction."""

    def __init__(self, kind, params):
        self.kind = kind
        self.params = dict(params)
        if kind == "interval":
            a, b, n = params["a"], params["b"], params["n"]
            if not (b > a and n >= 1):
                raise UnsupportedGrid("interval needs b > a and n >= 1")
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
            if not (radius > 0 and n >= 1 and d >= 1):
                raise UnsupportedGrid("radial needs radius > 0, n >= 1, dimension >= 1")
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
            if not (bx > ax and by > ay and nx >= 1 and ny >= 1):
                raise UnsupportedGrid("rectangle needs positive extents and resolutions")
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
    """Stiffness ``G^T diag(w) G`` on the interior nodes, as a CSC matrix.

    ``w`` holds one weight per cell (cell volume times conductivity for a
    Dirichlet energy); an atom ``(location, mass)`` adds the point stiffness
    of the hat gradients on the cells carrying it.  The matrix is symmetric
    positive semidefinite, and definite when every interior node reaches
    the boundary through cells of positive weight.
    """
    G = grid.gradient_sparse()
    K = G.T @ sp.diags(np.tile(w, grid.dim)) @ G
    for loc, mass in atoms:
        for i, cw in grid.cell_weights_at(loc):
            Gc = _cell_gradient(grid, i)
            K = K + mass * cw * (Gc.T @ Gc)
    idx = grid.interior_idx
    return K.tocsr()[idx][:, idx].tocsc()


def spd_solve(K, b):
    """Solve ``K x = b`` for a sparse symmetric positive definite ``K``.

    One sparse LU factorisation in SuperLU's symmetric mode: a minimum
    degree ordering of ``K + K^T`` and pivots on the diagonal, which keeps
    the fill of a stiffness matrix low and needs no pivot search.  Single
    columns in place of supernode panels (``relax``, ``panel_size``) lower
    the peak memory of the factorisation (by about 1 MB at 64x64 cells).
    """
    lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   relax=1, panel_size=1, options={"SymmetricMode": True})
    return lu.solve(b)


# ---------------------------------------------------------------------------
# CSV / JSON export
# ---------------------------------------------------------------------------

def write_field_csv(path, field):
    grid = field.grid
    cols = ["x", "y"][: grid.dim]
    with open(path, "w") as fh:
        fh.write(grid.header() + "\n")
        fh.write(",".join(cols + ["value"]) + "\n")
        for coords, v in zip(grid.node_coords, field.values):
            row = [_FMT % c for c in coords] + [_FMT % v]
            fh.write(",".join(row) + "\n")


def read_field_csv(path):
    grid, rows = _read_grid_csv(path)
    values = np.asarray([r[-1] for r in rows])
    return ScalarField(grid, values)


def write_measure(path_csv, path_json, measure):
    grid = measure.grid
    cols = ["x", "y"][: grid.dim]
    with open(path_csv, "w") as fh:
        fh.write(grid.header() + "\n")
        fh.write(",".join(cols + ["density"]) + "\n")
        for coords, v in zip(grid.cell_centers, measure.ac_density):
            row = [_FMT % c for c in coords] + [_FMT % v]
            fh.write(",".join(row) + "\n")
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
    grid, rows = _read_grid_csv(path_csv)
    density = np.asarray([r[-1] for r in rows])
    with open(path_json) as fh:
        sidecar = json.load(fh)
    atoms = [(np.asarray(a["location"]), a["mass"]) for a in sidecar.get("atoms", [])]
    return DiscreteMeasure(grid, density, atoms=atoms,
                           boundary_mass=sidecar.get("boundary_mass", 0.0))


def _read_grid_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        fh.readline()  # column names
        rows = [tuple(float(tok) for tok in line.split(","))
                for line in fh if line.strip()]
    if not header.startswith("# grid: "):
        raise UnsupportedGrid("missing grid header in %s" % path)
    body = header[len("# grid: "):].split()
    kind = body[0]
    params = {}
    for item in body[1:]:
        k, v = item.split("=")
        params[k] = int(v) if k in ("n", "nx", "ny", "dimension") else float(v)
    return Grid(kind, params), rows
