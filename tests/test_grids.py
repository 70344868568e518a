"""Grids, fields, sources, measures, and the discrete gradient pair."""

import gc
import io
import json
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import massopt as mo
from massopt.formatting import _BLOCK_VALUES, write_rows


# -- grid structure ---------------------------------------------------------

def test_interval_volumes_and_boundary():
    g = mo.interval_grid(-1.0, 1.0, 16)
    assert np.sum(g.cell_volumes) == pytest.approx(2.0, rel=1e-14)
    assert g.boundary_mask[0] and g.boundary_mask[-1]
    assert np.count_nonzero(g.boundary_mask) == 2


@pytest.mark.parametrize("dim,exact", [
    (1, 2.0), (2, math.pi), (3, 4.0 * math.pi / 3.0)])
def test_radial_ball_volume(dim, exact):
    g = mo.radial_grid(1.0, 257, dim)
    assert np.sum(g.cell_volumes) == pytest.approx(exact, rel=1e-10)
    # r = 0 is an interior point of the ball; only r = R is boundary
    assert not g.boundary_mask[0] and g.boundary_mask[-1]
    assert np.count_nonzero(g.boundary_mask) == 1


def test_rectangle_volume_and_boundary():
    g = mo.rectangle_grid(0.0, 2.0, 0.0, 1.0, 10, 6)
    assert np.sum(g.cell_volumes) == pytest.approx(2.0, rel=1e-14)
    assert np.count_nonzero(g.boundary_mask) == 2 * (10 + 1) + 2 * (6 + 1) - 4


# -- gradient ---------------------------------------------------------------

def test_gradient_parabola_exact_at_centers():
    g = mo.interval_grid(-1.0, 1.0, 40)
    u = mo.ScalarField(g, 1.0 - g.node_coords[:, 0] ** 2)
    gr = g.gradient_apply(u.values)
    assert np.allclose(gr[:, 0], -2.0 * g.cell_centers[:, 0], atol=1e-13)


def test_gradient_of_zero_field():
    g = mo.radial_grid(1.0, 20, 2)
    gr = g.gradient_apply(mo.ScalarField.zeros(g).values)
    assert np.all(gr == 0.0)


def test_gradient_rectangle_bilinear():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 12, 9)
    u = mo.ScalarField(g, g.node_coords[:, 0] * g.node_coords[:, 1])
    gr = g.gradient_apply(u.values)
    assert np.allclose(gr[:, 0], g.cell_centers[:, 1], atol=1e-13)
    assert np.allclose(gr[:, 1], g.cell_centers[:, 0], atol=1e-13)


@pytest.mark.parametrize("make", [
    lambda n: mo.interval_grid(-1.0, 1.0, n),
    lambda n: mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, n, n)])
def test_gradient_convergence_order(make):
    errs = []
    for n in (16, 32, 64):
        g = make(n)
        if g.dim == 1:
            u = mo.ScalarField(g, np.sin(2.0 * g.node_coords[:, 0]))
            exact = 2.0 * np.cos(2.0 * g.cell_centers[:, 0])
            got = g.gradient_apply(u.values)[:, 0]
        else:
            x, y = g.node_coords.T
            u = mo.ScalarField(g, np.sin(2.0 * x) * np.sin(y))
            exact = 2.0 * np.cos(2.0 * g.cell_centers[:, 0]) * np.sin(g.cell_centers[:, 1])
            got = g.gradient_apply(u.values)[:, 0]
        errs.append(np.max(np.abs(got - exact)))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 1.9


def _reference_gradient(g, u):
    # the hand-written 1-d and 2-d stencils that the corner table replaced
    if g.dim == 1:
        return ((u[1:] - u[:-1]) / g.widths[0])[:, None]
    nx, ny = g.params["nx"], g.params["ny"]
    hx, hy = g.widths[0][0], g.widths[1][0]
    u2 = u.reshape(ny + 1, nx + 1)
    gx = (u2[:-1, 1:] - u2[:-1, :-1] + u2[1:, 1:] - u2[1:, :-1]) / (2.0 * hx)
    gy = (u2[1:, :-1] - u2[:-1, :-1] + u2[1:, 1:] - u2[:-1, 1:]) / (2.0 * hy)
    return np.column_stack([gx.ravel(), gy.ravel()])


def _reference_adjoint(g, y):
    out = np.zeros(g.n_nodes)
    if g.dim == 1:
        q = y[:, 0] / g.widths[0]
        out[1:] += q
        out[:-1] -= q
        return out
    nx, ny = g.params["nx"], g.params["ny"]
    qx = (y[:, 0] / (2.0 * g.widths[0][0])).reshape(ny, nx)
    qy = (y[:, 1] / (2.0 * g.widths[1][0])).reshape(ny, nx)
    p, m = qx + qy, qx - qy
    o2 = np.zeros((ny + 1, nx + 1))
    o2[1:, 1:] += p
    o2[:-1, :-1] -= p
    o2[:-1, 1:] += m
    o2[1:, :-1] -= m
    return o2.ravel()


@pytest.mark.parametrize("grid", [
    mo.interval_grid(-1.0, 2.0, 37),
    mo.radial_grid(1.3, 41, 3),
    mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 9, 13),
    mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 13, 9),
    mo.rectangle_grid(0.1, 0.7, -0.3, 1.9, 11, 7),
], ids=["interval", "radial", "nx<ny", "nx>ny", "hx!=hy"])
def test_corner_stencils_keep_the_hand_written_bits(grid):
    # the gradient pair read from the corner table gives the bits of the
    # stencils it replaced, and stays an exact transpose pair
    rng = np.random.default_rng(11)
    u = rng.standard_normal(grid.n_nodes)
    y = rng.standard_normal((grid.n_cells, grid.dim))
    gu, gty = grid.gradient_apply(u), grid.gradient_adjoint(y)
    ref_gu, ref_gty = _reference_gradient(grid, u), _reference_adjoint(grid, y)
    assert gu.shape == ref_gu.shape and gu.tobytes() == ref_gu.tobytes()
    assert gty.shape == ref_gty.shape and gty.tobytes() == ref_gty.tobytes()
    terms = np.sum(np.abs(gu * y))
    assert abs(np.sum(gu * y) - np.dot(u, gty)) <= 1e-13 * terms


# -- adjointness ------------------------------------------------------------

@pytest.mark.parametrize("grid", [
    mo.interval_grid(-1.0, 1.0, 33),
    mo.radial_grid(1.0, 25, 3),
    mo.rectangle_grid(0.0, 1.0, 0.0, 2.0, 9, 7)])
def test_weighted_divergence_adjointness(grid):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.n_nodes)
    u[grid.boundary_mask] = 0.0
    sigma = mo.VectorField(grid, rng.standard_normal((grid.n_cells, grid.dim)))
    # atoms inside a cell and on a node, and on a rectangle on a face too
    x = grid.axes
    if grid.dim == 1:
        atoms = [(np.array([0.31]), 0.6), (np.array([x[0][7]]), 0.9)]
    else:
        atoms = [(np.array([0.37, 1.3]), 0.6), (np.array([0.8, 0.25]), 1.1),
                 (np.array([x[0][3], x[1][2]]), 0.9), (np.array([x[0][4], 1.3]), 0.7)]
    mu = mo.DiscreteMeasure(grid, rng.random(grid.n_cells), atoms=atoms)
    div = mo.divergence_weighted(mu, sigma)
    lhs = float(u @ div)
    flux = np.sum(sigma.values * grid.gradient_apply(u), axis=1)
    rhs = -float(np.dot(grid.cell_volumes * mu.ac_density, flux))
    # an atom weighs each cell carrying it by its share
    for loc, mass in mu.atoms:
        rhs -= mass * sum(share * flux[i] for i, share in grid.cell_weights_at(loc))
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_divergence_identity_1d():
    # mu = Lebesgue, sigma = -x: -(sigma)' = 1, nodal values match the load of f = 1
    g = mo.interval_grid(-1.0, 1.0, 64)
    mu = mo.DiscreteMeasure(g, np.ones(g.n_cells))
    sigma = mo.VectorField(g, -g.cell_centers)
    div = mo.divergence_weighted(mu, sigma)
    load = mo.SourceTerm.constant(g, 1.0).load_vector()
    interior = ~g.boundary_mask
    assert np.max(np.abs(-div - load)[interior]) <= 1e-12


def test_divergence_zero_flux():
    g = mo.interval_grid(-1.0, 1.0, 16)
    mu = mo.DiscreteMeasure(g, np.ones(g.n_cells))
    div = mo.divergence_weighted(mu, mo.VectorField(g, np.zeros((g.n_cells, 1))))
    assert np.all(div == 0.0)


def test_divergence_single_atom():
    # <div(mu sigma), hat_j> = -sigma(p) . grad hat_j(p) for mu = delta_p
    g = mo.interval_grid(-1.0, 1.0, 8)
    p = np.array([0.1])
    mu = mo.DiscreteMeasure(g, np.zeros(g.n_cells), atoms=[(p, 1.0)])
    sigma = mo.VectorField(g, np.ones((g.n_cells, 1)))
    div = mo.divergence_weighted(mu, sigma)
    (i, _w), = g.cell_weights_at(p)
    h = g.widths[0][i]
    assert div[i] == pytest.approx(1.0 / h)
    assert div[i + 1] == pytest.approx(-1.0 / h)


def test_divergence_rejects_flux_from_another_grid(tmp_path):
    # a flux is only paired with a measure on a grid of the same kind and
    # parameters; a CSV round trip keeps the parameters, so it is accepted
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 6, 5)
    mu = mo.DiscreteMeasure(g, np.ones(g.n_cells))
    for other in (mo.rectangle_grid(0.0, 2.0, 0.0, 1.0, 6, 5),
                  mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 7, 5)):
        sigma = mo.VectorField(other, np.ones((other.n_cells, 2)))
        with pytest.raises(mo.UnsupportedGrid):
            mo.divergence_weighted(mu, sigma)
    u = mo.ScalarField(g, np.random.default_rng(2).standard_normal(g.n_nodes))
    mo.write_field_csv(tmp_path / "u.csv", u)
    back = mo.read_field_csv(tmp_path / "u.csv")
    assert back.grid is not g
    div = mo.divergence_weighted(mu, mo.VectorField(back.grid,
                                                    back.grid.gradient_apply(back.values)))
    assert np.array_equal(div, mo.divergence_weighted(mu, mo.VectorField(
        g, g.gradient_apply(u.values))))


# -- sources ----------------------------------------------------------------

def test_pair_source_quadrature():
    g = mo.interval_grid(-1.0, 1.0, 512)
    f = mo.SourceTerm.constant(g, 1.0)
    u = mo.ScalarField(g, (1.0 - g.node_coords[:, 0] ** 2) / 2.0)
    assert np.dot(f.load_vector(), u.values) == pytest.approx(2.0 / 3.0, abs=1e-5)


def test_pair_source_atom():
    g = mo.interval_grid(-1.0, 1.0, 64)
    f = mo.SourceTerm(g, atoms=[(np.array([0.0]), 1.0)])
    tent = mo.ScalarField(g, 1.0 - np.abs(g.node_coords[:, 0]))
    assert np.dot(f.load_vector(), tent.values) == pytest.approx(1.0, abs=1e-14)


def test_pair_zero_total_with_constant_field():
    g = mo.interval_grid(-1.0, 1.0, 32)
    dens = g.node_coords[:, 0].copy()  # odd density: zero total mass
    f = mo.SourceTerm(g, density=dens)
    const = mo.ScalarField(g, np.ones(g.n_nodes))
    assert abs(np.dot(f.load_vector(), const.values)) <= 1e-14
    assert abs(np.dot(f.density, g.node_weights)) <= 1e-14


def test_pairing_is_linear():
    g = mo.interval_grid(-1.0, 1.0, 24)
    rng = np.random.default_rng(9)
    f = mo.SourceTerm(g, density=rng.standard_normal(g.n_nodes),
                      atoms=[(np.array([0.4]), 1.3)])
    u = mo.ScalarField(g, rng.standard_normal(g.n_nodes))
    v = mo.ScalarField(g, rng.standard_normal(g.n_nodes))
    uv = mo.ScalarField(g, 2.0 * u.values - 3.0 * v.values)
    F = f.load_vector()
    assert np.dot(F, uv.values) == pytest.approx(
        2.0 * np.dot(F, u.values) - 3.0 * np.dot(F, v.values), rel=1e-12)


def test_source_atom_must_be_interior():
    g = mo.interval_grid(-1.0, 1.0, 8)
    with pytest.raises(mo.AtomOutsideGrid):
        mo.SourceTerm(g, atoms=[(np.array([1.0]), 1.0)])
    with pytest.raises(mo.AtomOutsideGrid):
        mo.SourceTerm(g, atoms=[(np.array([2.0]), 1.0)])


@pytest.mark.parametrize("grid, loc", [
    (mo.interval_grid(-1.0, 1.0, 8), [0.2, 5.0]),
    (mo.radial_grid(1.0, 8, 2), [0.1, 0.1]),
    (mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 8), [0.5]),
    (mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 8), [0.5, 0.5, 0.5]),
], ids=["interval-2", "radial-2", "rectangle-1", "rectangle-3"])
def test_atom_needs_one_coordinate_per_axis(grid, loc):
    for make in (lambda: mo.SourceTerm(grid, atoms=[(np.array(loc), 1.0)]),
                 lambda: mo.DiscreteMeasure(grid, np.ones(grid.n_cells),
                                            atoms=[(np.array(loc), 1.0)])):
        with pytest.raises(mo.AtomOutsideGrid, match="needs %d coordinate" % grid.dim):
            make()


def test_radial_center_atom_allowed():
    g = mo.radial_grid(1.0, 16, 2)
    f = mo.SourceTerm(g, atoms=[(np.array([0.0]), 2.0)])
    assert f.load_vector()[0] == pytest.approx(2.0)


# -- measures ---------------------------------------------------------------

def test_measure_invariants():
    g = mo.interval_grid(-1.0, 1.0, 16)
    with pytest.raises(ValueError):
        mo.DiscreteMeasure(g, -np.ones(g.n_cells))
    with pytest.raises(ValueError):
        mo.DiscreteMeasure(g, np.ones(g.n_cells), atoms=[(np.array([0.0]), -1.0)])
    mu = mo.DiscreteMeasure(g, np.ones(g.n_cells), atoms=[(np.array([0.5]), 2.0)])
    # a linear cost of slope 1 is the total variation: 2 of density, 2 of atom
    assert mo.cost_eval(mu, mo.linear_cost(1.0)) == pytest.approx(4.0)


@pytest.mark.parametrize("grid, loc, on_boundary", [
    (mo.interval_grid(-1.0, 1.0, 8), [1.0], True),
    (mo.interval_grid(-1.0, 1.0, 8), [-1.0], True),
    (mo.interval_grid(-1.0, 1.0, 8), [0.25], False),
    (mo.radial_grid(1.0, 8, 3), [1.0], True),
    (mo.radial_grid(1.0, 8, 3), [0.0], False),
    (mo.rectangle_grid(0.0, 2.0, 0.0, 1.0, 8, 6), [0.7, 1.0], True),
    (mo.rectangle_grid(0.0, 2.0, 0.0, 1.0, 8, 6), [0.0, 0.3], True),
    (mo.rectangle_grid(0.0, 2.0, 0.0, 1.0, 8, 6), [2.0, 1.0], True),
    (mo.rectangle_grid(0.0, 2.0, 0.0, 1.0, 8, 6), [0.7, 0.3], False),
], ids=["interval-right", "interval-left", "interval-inside", "radial-R", "radial-centre",
        "rectangle-top", "rectangle-left", "rectangle-corner", "rectangle-inside"])
def test_measure_boundary_mass_is_its_boundary_atoms(grid, loc, on_boundary):
    # an atom on a boundary end of an axis scores its mass; the ball's
    # centre is interior
    mu = mo.DiscreteMeasure(grid, np.ones(grid.n_cells),
                            atoms=[(np.array(loc), 5.0), (np.full(grid.dim, 0.5), 0.25)])
    assert mu.boundary_mass == (5.0 if on_boundary else 0.0)
    assert mo.DiscreteMeasure(grid, np.ones(grid.n_cells)).boundary_mass == 0.0


def test_zero_boundary_flag():
    g = mo.interval_grid(0.0, 1.0, 8)
    u = mo.ScalarField.zeros(g)
    assert not np.any(u.values[g.boundary_mask])
    u.values[0] = 1.0
    assert np.any(u.values[g.boundary_mask])


# -- export / import --------------------------------------------------------

def test_field_csv_roundtrip(tmp_path):
    g = mo.radial_grid(1.0, 12, 3)
    u = mo.ScalarField(g, np.cos(g.node_coords[:, 0]))
    path = tmp_path / "u.csv"
    mo.write_field_csv(path, u)
    back = mo.read_field_csv(path)
    assert back.grid.kind == "radial"
    assert np.array_equal(back.values, u.values)


def test_measure_roundtrip(tmp_path):
    g = mo.interval_grid(-1.0, 1.0, 20)
    mu = mo.DiscreteMeasure(g, np.abs(g.cell_centers[:, 0]),
                            atoms=[(np.array([0.25]), 0.5)])
    mo.write_measure(tmp_path / "m.csv", tmp_path / "m.json", mu)
    back = mo.read_measure(tmp_path / "m.csv", tmp_path / "m.json")
    assert np.array_equal(back.ac_density, mu.ac_density)
    assert back.atoms[0][1] == 0.5
    assert np.array_equal(back.atoms[0][0], mu.atoms[0][0])
    assert back.boundary_mass == mu.boundary_mass


def test_read_measure_computes_its_boundary_mass(tmp_path):
    # the sidecar keeps boundary_mass for other readers; a measure read back
    # computes its own from its atoms
    g = mo.interval_grid(-1.0, 1.0, 20)
    mu = mo.DiscreteMeasure(g, np.ones(g.n_cells), atoms=[(np.array([1.0]), 0.5)])
    mo.write_measure(tmp_path / "m.csv", tmp_path / "m.json", mu)
    side = json.loads((tmp_path / "m.json").read_text())
    assert side["boundary_mass"] == 0.5
    side["boundary_mass"] = 7.0
    (tmp_path / "m.json").write_text(json.dumps(side))
    assert mo.read_measure(tmp_path / "m.csv", tmp_path / "m.json").boundary_mass == 0.5


# valid JSON that is no measure sidecar: not an object, or no list of numeric atoms
NOT_A_SIDECAR = {"list": [], "string": "x", "null": None, "number": 3}
OF_THE_GRID = ("other-grid", "no-grid", "no-params")


@pytest.mark.parametrize("sidecar", [*OF_THE_GRID, *NOT_A_SIDECAR, "atoms-string", "mass-string"])
def test_read_measure_refuses_a_sidecar_of_another_grid(tmp_path, sidecar):
    square = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 8)
    wide = mo.rectangle_grid(0.0, 2.0, 0.0, 1.0, 8, 8)
    mo.write_measure(tmp_path / "m.csv", tmp_path / "m.json",
                     mo.DiscreteMeasure(square, np.ones(square.n_cells)))
    mo.write_measure(tmp_path / "w.csv", tmp_path / "w.json",
                     mo.DiscreteMeasure(wide, np.ones(wide.n_cells)))
    side = json.loads((tmp_path / ("w.json" if sidecar == "other-grid" else "m.json")).read_text())
    if sidecar == "no-grid":
        del side["grid"]
    elif sidecar == "no-params":
        del side["grid"]["params"]
    elif sidecar == "atoms-string":
        side["atoms"] = "x"
    elif sidecar == "mass-string":
        side["atoms"] = [{"location": [0.5, 0.5], "mass": "1.0"}]
    (tmp_path / "m.json").write_text(json.dumps(NOT_A_SIDECAR.get(sidecar, side)))
    match = "not of the grid" if sidecar in OF_THE_GRID else "not a measure sidecar"
    with pytest.raises(mo.UnsupportedGrid, match=match):
        mo.read_measure(tmp_path / "m.csv", tmp_path / "m.json")


@pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_measure_refuses_an_atom_mass_that_is_not_finite_and_positive(tmp_path, mass):
    g = mo.interval_grid(-1.0, 1.0, 20)
    with pytest.raises(ValueError, match="finite and positive"):
        mo.DiscreteMeasure(g, np.ones(g.n_cells), atoms=[(np.array([0.25]), mass)])
    # a hand-edited sidecar of the same grid: json reads NaN and Infinity as floats
    mo.write_measure(tmp_path / "m.csv", tmp_path / "m.json", mo.DiscreteMeasure(g, np.ones(g.n_cells)))
    side = json.loads((tmp_path / "m.json").read_text())
    side["atoms"] = [{"location": [0.25], "mass": mass}]
    (tmp_path / "m.json").write_text(json.dumps(side))
    with pytest.raises(ValueError, match="finite and positive"):
        mo.read_measure(tmp_path / "m.csv", tmp_path / "m.json")


@pytest.mark.parametrize("grid", [mo.rectangle_grid(-0.3, 1.0, 0.0, 2.5, 7, 5),
                                  mo.radial_grid(1.7, 23, 3)], ids=["rectangle", "radial"])
def test_csv_readers_roundtrip_special_values(tmp_path, grid):
    rng = np.random.default_rng(9)
    values = rng.standard_normal(grid.n_nodes) * 10.0 ** rng.uniform(-30, 30, grid.n_nodes)
    values[:5] = [math.nan, math.inf, -math.inf, -0.0, 0.0]
    density = np.abs(rng.standard_normal(grid.n_cells))
    density[:3] = [math.nan, math.inf, -0.0]
    mo.write_field_csv(tmp_path / "u.csv", mo.ScalarField(grid, values))
    mo.write_measure(tmp_path / "m.csv", tmp_path / "m.json", mo.DiscreteMeasure(grid, density))
    back_u = mo.read_field_csv(tmp_path / "u.csv")
    back_mu = mo.read_measure(tmp_path / "m.csv", tmp_path / "m.json")
    for got, want in [(back_u.values, values), (back_mu.ac_density, density)]:
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    # blank and whitespace-only lines in the body are skipped
    lines = (tmp_path / "u.csv").read_text().splitlines(keepends=True)
    (tmp_path / "u.csv").write_text("".join(lines[:4] + ["\n", "  \n"] + lines[4:] + ["\n"]))
    assert np.array_equal(mo.read_field_csv(tmp_path / "u.csv").values, values,
                          equal_nan=True)


def test_csv_reader_needs_grid_header(tmp_path):
    (tmp_path / "u.csv").write_text("x,value\n0,1\n")
    with pytest.raises(mo.UnsupportedGrid):
        mo.read_field_csv(tmp_path / "u.csv")


@pytest.mark.parametrize("header,key", [
    ("interval a=-1 b=1", "'n'"),
    ("interval a=-1 b=1 n=oops", "'n'"),
    ("interval a=-1 b=1 n", "'n'"),
    ("interval a=-1 b=1 n=8 nx=8", "'nx'"),
    ("disc radius=1 n=8", "'disc'"),
], ids=["missing-key", "bad-value", "no-value", "unknown-key", "unknown-kind"])
def test_csv_reader_refuses_a_malformed_grid_header(tmp_path, header, key):
    # the header is read through the one declaration of each kind's keys
    (tmp_path / "u.csv").write_text("# grid: %s\nx,value\n0,1\n1,2\n" % header)
    with pytest.raises(mo.UnsupportedGrid, match=key):
        mo.read_field_csv(tmp_path / "u.csv")


def test_grid_converts_its_params_through_the_declared_keys():
    g = mo.Grid("rectangle", {"ax": 0, "bx": "1", "ay": np.float64(0.0), "by": 2.0,
                              "nx": "4", "ny": np.int64(3)})
    assert g.params == {"ax": 0.0, "bx": 1.0, "ay": 0.0, "by": 2.0, "nx": 4, "ny": 3}
    assert [type(v) for v in g.params.values()] == [float] * 4 + [int] * 2
    for params, key in [({"a": 0.0, "b": 1.0}, "'n'"), ({"a": 0.0, "b": None, "n": 8}, "'b'"),
                        ({"a": 0.0, "b": 1.0, "n": 0}, "n >= 1")]:
        with pytest.raises(mo.UnsupportedGrid, match=key):
            mo.Grid("interval", params)


@pytest.mark.parametrize("value", [8.7, 2.5, math.inf, math.nan, 8.0])
@pytest.mark.parametrize("build, read, error", [
    (lambda v: mo.interval_grid(0.0, 1.0, v), lambda g: g.n_cells, mo.UnsupportedGrid),
    (lambda v: mo.radial_grid(1.0, 8, v), lambda g: g.ball_dim, mo.UnsupportedGrid),
    (lambda v: mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, v, 8), lambda g: g.params["nx"],
     mo.UnsupportedGrid),
    (lambda v: mo.SolverParams(max_iterations=v), lambda p: p.max_iterations, ValueError),
], ids=["interval-n", "radial-dimension", "rectangle-nx", "max-iterations"])
def test_integer_keys_refuse_a_value_that_is_not_integral(build, read, error, value):
    # a fractional or non-finite count is refused, not truncated; an
    # integral float is the integer it holds
    if value == 8.0:
        assert read(build(value)) == 8
    else:
        with pytest.raises(error):
            build(value)


@pytest.mark.parametrize("make", [
    lambda: mo.rectangle_grid(1e16, 1e16 + 2, 0.0, 1.0, 8, 8),
    lambda: mo.rectangle_grid(0.0, 1.0, -1e16 - 2, -1e16, 8, 8),
    lambda: mo.interval_grid(1e16, 1e16 + 2, 8),
    lambda: mo.radial_grid(-1.0, 8, 2),
], ids=["rectangle-x", "rectangle-y", "interval", "radial-reversed"])
def test_grid_refuses_nodes_that_do_not_increase(make):
    # 1e16 + 2 is the next double after 1e16, so the nodes of 8 cells
    # between them collapse under rounding; every axis' nodes must increase
    # strictly
    with pytest.raises(mo.UnsupportedGrid, match="strictly increasing"):
        make()


def _old_rows(fh, points, values):
    # the per-cell writer the vectorised one replaced
    for coords, v in zip(points, values):
        row = ["%.17g" % c for c in coords] + ["%.17g" % v]
        fh.write(",".join(row) + "\n")


@pytest.mark.parametrize("grid", [mo.rectangle_grid(-0.3, 1.0, 0.0, 2.5, 7, 5),
                                  mo.radial_grid(1.7, 23, 3),
                                  # wider than tall, bounds and steps not representable
                                  mo.rectangle_grid(-0.3, 1.1, 0.1, 7.0 / 3.0, 11, 4),
                                  mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 1, 1),
                                  # bodies of several write blocks, in 2-d and in 1-d
                                  mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 56, 45),
                                  mo.radial_grid(1.0, 4096, 2)],
                         ids=["rectangle", "radial", "wide-inexact", "1x1", "56x45",
                              "radial-4096"])
def test_csv_writers_match_per_cell_writer(tmp_path, grid):
    rng = np.random.default_rng(8)
    values = rng.standard_normal(grid.n_nodes) * 10.0 ** rng.uniform(-30, 30, grid.n_nodes)
    values[:3] = [0.0, -0.0, 1.0 / 3.0]
    density = np.abs(rng.standard_normal(grid.n_cells))
    mo.write_field_csv(tmp_path / "u.csv", mo.ScalarField(grid, values))
    mo.write_measure(tmp_path / "m.csv", tmp_path / "m.json", mo.DiscreteMeasure(grid, density))
    cols = ["x", "y"][: grid.dim]
    for name, points, vals, last in [("u.csv", grid.node_coords, values, "value"),
                                     ("m.csv", grid.cell_centers, density, "density")]:
        with open(tmp_path / ("old_" + name), "w") as fh:
            fh.write(grid.header() + "\n")
            fh.write(",".join(cols + [last]) + "\n")
            _old_rows(fh, points, vals)
        assert (tmp_path / name).read_bytes() == (tmp_path / ("old_" + name)).read_bytes()


def _printf_rows(table):
    # the one-format-operation writer write_rows replaced
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return row * table.shape[0] % tuple(table.ravel().tolist())


def _assert_written_as_printf(table):
    fh = io.StringIO()
    write_rows(fh, table)
    got, want = fh.getvalue().split("\n"), _printf_rows(table).split("\n")
    first = next(((i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert first is None and len(got) == len(want), first  # (row, written, printf)


def _g17_edge_values():
    big = sys.float_info.max
    values = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
              big, -big, sys.float_info.min, 9.9999999999999995e-7, 99999999999999999.0]
    # powers of ten and their neighbours, across the fixed/exponent switch
    # (X = -5 | -4 and 16 | 17) and the ends of the exact range (1e-6, 1e17)
    for j in range(-323, 309):
        p = float("1e%d" % j)
        down, up = np.nextafter(p, 0.0), np.nextafter(p, math.inf)
        values += [p, down, up, np.nextafter(down, 0.0), np.nextafter(up, math.inf)]
    # exact decimal ties at the 17th digit (2**-25 = 2.98023223876953125e-8)
    values += [2.0 ** -n for n in range(1075)] + [2.0 ** n for n in range(1024)]
    values += [3.0 * 2.0 ** -n for n in range(80)] + [0.5 + 2.0 ** -n for n in range(54)]
    values = np.array(values)
    return np.concatenate([values, -values])


def test_write_rows_is_printf_on_random_bit_patterns():
    rng = np.random.default_rng(26)
    bits = rng.integers(0, 2 ** 64, 100_002, dtype=np.uint64, endpoint=False).view(np.float64)
    _assert_written_as_printf(bits.reshape(-1, 3))


def test_write_rows_is_printf_where_digits_are_exact():
    # random mantissas in and around 1e-6 <= |x| < 1e17, where the digits
    # come from the exact product instead of Python's "%.16e"
    rng = np.random.default_rng(27)
    exps = rng.integers(-25, 60, 100_000)
    values = np.ldexp(rng.uniform(0.5, 1.0, exps.size), exps) * rng.choice([-1.0, 1.0], exps.size)
    _assert_written_as_printf(values.reshape(-1, 2))


def test_write_rows_is_printf_on_edge_values():
    _assert_written_as_printf(_g17_edge_values()[:, None])


@pytest.mark.parametrize("ncols, rows", [
    pytest.param(ncols, rows, id="%d-%d" % (ncols, rows)) for ncols in (1, 2, 3, 4)
    for rows in (1,) + tuple(_BLOCK_VALUES // ncols + d for d in (-1, 0, 1))])
def test_write_rows_is_printf_at_block_edges(ncols, rows):
    rng = np.random.default_rng(ncols * 1000 + rows)
    table = rng.choice(_g17_edge_values(), (rows, ncols))
    table[::3] = rng.standard_normal((len(table[::3]), ncols))
    _assert_written_as_printf(table)


@pytest.mark.parametrize("atoms", [(), ((np.array([0.61, 0.33]), 0.8),)],
                         ids=["plain", "atom"])
def test_stiffness_tensor_of_scalar_weights(atoms):
    # the tensor parts (w, 0, w) assemble the scalar-weight stiffness, with
    # the atoms folded into w
    g = mo.rectangle_grid(0.0, 1.5, 0.0, 1.0, 13, 9)
    w = np.random.default_rng(2).uniform(0.1, 10.0, g.n_cells)
    w = mo.grids.with_atoms(g, w, atoms)
    layout = g.stiffness_layout
    K = layout.band(w)
    Kt = layout.band((w, np.zeros(g.n_cells), w))
    assert abs(K - Kt).max() <= 1e-14 * abs(K).max()


def _hessian_weights():
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 12, 10)
    prob = mo.build_problem(g, mo.power_cost(3.0), mo.SourceTerm.constant(g, 1.0))
    u = np.random.default_rng(1).standard_normal(g.n_nodes)
    u[g.boundary_mask] = 0.0
    grad = g.gradient_apply(u)
    _value, d, rho = prob.level(0.5 * np.sum(grad * grad, axis=1))
    return g, mo.solver._hessian_blocks(prob, grad, d, rho), ()


def _unit_weights(g, atoms=()):
    return g, g.cell_volumes, atoms


def _telescoped_solve(g, w, b):
    # K x = b for the stiffness of the folded cell weights w on a 1-d grid,
    # by the flux recursion energy_eval uses there in place of a band
    F = np.zeros(g.n_nodes)
    F[g.interior_idx] = b
    return mo.recovery._telescoped_field(g, w, F)[g.interior_idx]


@pytest.mark.parametrize("build, reordered", [
    (lambda: _unit_weights(mo.interval_grid(-1.0, 2.0, 97)), None),
    (lambda: _unit_weights(mo.radial_grid(1.0, 80, 3)), None),
    (lambda: _unit_weights(mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 12, 10),
                           [(np.array([0.37, 0.51]), 2.0)]), True),
    (_hessian_weights, True),
    (lambda: _unit_weights(mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 96, 6)), True),
    (lambda: _unit_weights(mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 6, 96)), False),
], ids=["interval", "radial", "rect-atom", "hessian", "rect-96x6", "rect-6x96"])
def test_spd_factor_matches_dense_solve(build, reordered):
    # a rectangle wider than tall is factored column by column; a 1-d grid
    # builds no factor (reordered is None) and solves by the flux recursion
    g, w, atoms = build()
    K = _dense_stiffness(g, w, atoms)
    b = np.random.default_rng(4).standard_normal(K.shape[0])
    if reordered is None:
        x = _telescoped_solve(g, mo.grids.with_atoms(g, w, atoms), b)
    else:
        layout = g.stiffness_layout
        factor = layout.factor(layout.band(mo.grids.with_atoms(g, w, atoms)))
        assert (factor.order is not None) == reordered
        x = factor.solve(b)
    ref = np.linalg.solve(K, b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_spd_factor_band_of_wide_rectangle():
    # row-by-row numbering gives a band 256 wide; column by column it is short
    g = mo.rectangle_grid(0.0, 4.0, 0.0, 1.0, 256, 8)
    assert mo.grids.stiffness_factor(g, g.cell_volumes).band.shape[0] <= 2 * 8


def _bincount_band(g, w):
    # an np.bincount assembly written out from node indices, cell by cell:
    # every (cell, local pair) entry goes to its slot in the band, or past
    # its end when a node of the pair is on the boundary; returns the band
    # and the positions
    n = g.interior_idx.size
    if g.dim == 1:
        local = np.arange(g.n_cells)[:, None] + np.arange(2)
        grads = (np.array([-1.0, 1.0]) / g.widths[0][:, None])[:, None, :]
        pos = np.arange(n)
    else:
        nx, ny = g.params["nx"], g.params["ny"]
        jj, ii = np.divmod(np.arange(g.n_cells), nx)
        local = (jj * (nx + 1) + ii)[:, None] + np.array([0, 1, nx + 1, nx + 2])
        grads = (np.array([[-1.0, 1.0, -1.0, 1.0], [-1.0, -1.0, 1.0, 1.0]])
                 / [[2.0 * h[0]] for h in g.widths])[None]
        pos = np.arange(n)
        if nx > ny:
            iy, ix = np.divmod(np.arange(n), nx - 1)
            pos = ix * (ny - 1) + iy
    node_pos = np.full(g.n_nodes, -1)
    node_pos[g.interior_idx] = pos
    la, lb = np.triu_indices(local.shape[1])
    pa, pb = node_pos[local[:, la]], node_pos[local[:, lb]]
    inside = (pa >= 0) & (pb >= 0)
    rows = np.abs(pa - pb)
    band_rows = int(np.max(rows, where=inside, initial=0)) + 1
    size = n * band_rows
    slots = np.where(inside, np.minimum(pa, pb) * band_rows + rows, size)
    ca, cb = grads[:, :, la], grads[:, :, lb]
    if w.ndim == 1:
        vals = w[:, None] * np.sum(ca * cb, axis=1)
    else:
        vals = (w[:, 0, 0, None] * (ca[:, 0] * cb[:, 0])
                + w[:, 0, 1, None] * (ca[:, 0] * cb[:, 1] + ca[:, 1] * cb[:, 0])
                + w[:, 1, 1, None] * (ca[:, 1] * cb[:, 1]))
    flat = np.bincount(slots.ravel(), weights=vals.ravel(), minlength=size + 1)
    return flat[:size].reshape(n, band_rows).T, pos


def _bits(a):
    return np.asarray(a).view(np.int64)


def _folded(g, w, atoms):
    # with_atoms for per-cell scalars; an atom adds its cells' shares to the
    # diagonal of 2x2 tensor weights
    extra = mo.grids.with_atoms(g, np.zeros(g.n_cells), atoms)
    return w + (extra if w.ndim == 1 else extra[:, None, None] * np.eye(2))


def _parts(w):
    # the weights as band takes them: per-cell scalars, or the three parts
    # of per-cell 2x2 tensors
    return w if w.ndim == 1 else (w[:, 0, 0], w[:, 0, 1], w[:, 1, 1])


_PLAN_GRIDS = {
    "tall": lambda: mo.rectangle_grid(0.0, 0.7, 0.0, 2.0, 5, 11),
    "wide": lambda: mo.rectangle_grid(-0.3, 3.0, -1.0, 7.0 / 3.0, 13, 6),
    "square-cells": lambda: mo.rectangle_grid(0.0, 1.5, 0.0, 1.0, 12, 8),
    "1x7": lambda: mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 1, 7),
    "7x1": lambda: mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 7, 1),
    "2x2": lambda: mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 2, 2),
    "2x9": lambda: mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 2, 9),
    "3x8": lambda: mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 3, 8),
    "8x3": lambda: mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 3),
    # a benchmark-sized rectangle, numbered column by column
    "56x45": lambda: mo.rectangle_grid(0.0, 1.2, 0.0, 1.0, 56, 45),
    "interval": lambda: mo.interval_grid(-1.0, 2.0, 23),
    "radial": lambda: mo.radial_grid(1.3, 19, 3),
}


def _dense_from_band(band):
    # the symmetric matrix whose lower diagonals the band holds
    n = band.shape[1]
    K = np.diag(band[0])
    for r in range(1, band.shape[0]):
        K += np.diag(band[r, :n - r], -r) + np.diag(band[r, :n - r], r)
    return K


@pytest.mark.parametrize("name, weights", [
    (name, weights) for name in sorted(_PLAN_GRIDS)
    for weights in ("scalar", "scalar-atoms") + (
        () if name in ("interval", "radial") else ("tensor", "tensor-atoms"))])
def test_slice_plan_band_matches_bincount_assembly(name, weights):
    # bit for bit, with cells of zero weight, and on square cells, whose
    # edge couplings cancel exactly; 2x2 weights live on rectangles
    g = _PLAN_GRIDS[name]()
    rng = np.random.default_rng(11)
    w = rng.uniform(0.1, 10.0, g.n_cells)
    w[::3] = 0.0
    if weights.startswith("tensor"):
        A = rng.standard_normal((g.n_cells, 2, 2))
        w = (A @ np.swapaxes(A, 1, 2)) * (w > 0.0)[:, None, None]
    if weights.endswith("atoms"):
        loc = np.array([0.4]) if g.dim == 1 else g.cell_centers[g.n_cells // 2] + 0.01
        w = _folded(g, w, [(loc, 1.5)])
    ref, pos = _bincount_band(g, w)
    if g.dim == 1:
        # no band: the flux recursion solves the assembled stiffness across
        # the cuts of the cells of zero weight, for a load that puts no net
        # load on a floating run
        K = _dense_from_band(ref)
        b = K @ rng.standard_normal(K.shape[0])
        x = _telescoped_solve(g, w, b)
        assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)
        return
    layout = g.stiffness_layout
    band = layout.band(_parts(w))
    assert band.shape == ref.shape and band.flags.f_contiguous
    assert np.array_equal(_bits(band), _bits(ref))
    assert np.array_equal(layout.pos, pos)


def _dense_gradient(g):
    # the gradient on the interior nodes as a dense matrix, one column per
    # unit vector through the stencil; rows hold every cell's x part, then y
    G = np.stack([g.gradient_apply(e) for e in np.eye(g.n_nodes)[g.interior_idx]], axis=-1)
    return G.transpose(1, 0, 2).reshape(g.dim * g.n_cells, -1)


def _dense_stiffness(g, w, atoms):
    # G^T B G from the stencil's gradient, each atom's point stiffness from
    # the gradient rows of the cells that carry it
    G = _dense_gradient(g)
    n = g.n_cells
    if isinstance(w, tuple):
        w = np.stack([np.stack([w[0], w[1]], -1), np.stack([w[1], w[2]], -1)], -2)
    if w.ndim == 1:
        B = np.diag(np.tile(w, g.dim))
    else:
        B = np.block([[np.diag(w[:, 0, 0]), np.diag(w[:, 0, 1])],
                      [np.diag(w[:, 1, 0]), np.diag(w[:, 1, 1])]])
    K = G.T @ B @ G
    for loc, mass in atoms:
        for i, cw in g.cell_weights_at(loc):
            K += mass * cw * (G[i::n].T @ G[i::n])
    return K


_LAYOUT_GRIDS = {
    "interval": (lambda: mo.interval_grid(-1.0, 2.0, 23), [(np.array([0.4]), 1.5)]),
    "radial": (lambda: mo.radial_grid(1.3, 19, 3), [(np.array([0.5]), 0.7)]),
    "square": (lambda: mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 8, 8),
               [(np.array([0.5, 0.5]), 2.0), (np.array([0.3, 0.71]), 0.4)]),
    "wide": (lambda: mo.rectangle_grid(0.0, 3.0, -1.0, 0.5, 13, 5),
             [(np.array([1.1, -0.2]), 1.0)]),
    "tall": (lambda: mo.rectangle_grid(0.0, 0.7, 0.0, 2.0, 4, 11),
             [(np.array([0.35, 1.0]), 3.0)]),
}


@pytest.mark.parametrize("with_atoms", [False, True], ids=["plain", "atoms"])
@pytest.mark.parametrize("name, tensor", [
    (name, False) for name in sorted(_LAYOUT_GRIDS)] + [
    (name, True) for name in ("square", "tall", "wide")],  # 2x2 weights on rectangles
    ids=lambda v: v if isinstance(v, str) else ("tensor" if v else "scalar"))
def test_stiffness_matches_dense_product(name, tensor, with_atoms):
    make, atoms = _LAYOUT_GRIDS[name]
    g = make()
    rng = np.random.default_rng(5)
    if tensor:
        A = rng.standard_normal((g.n_cells, 2, 2))
        w = A @ np.swapaxes(A, 1, 2) + 0.1 * np.eye(2)
    else:
        w = rng.uniform(0.1, 10.0, g.n_cells)
    atoms = atoms if with_atoms else ()
    ref = _dense_stiffness(g, w, atoms)
    if g.dim == 1:  # no band: the flux recursion solves the dense product
        b = rng.standard_normal(ref.shape[0])
        x = _telescoped_solve(g, mo.grids.with_atoms(g, w, atoms), b)
        assert np.linalg.norm(x - np.linalg.solve(ref, b)) <= 1e-12 * np.linalg.norm(x)
        return
    layout = g.stiffness_layout
    band = layout.band(_parts(_folded(g, w, atoms)))
    # the dense matrix in band order: nothing outside the band, and the band
    # holds its lower diagonals
    order = np.argsort(layout.pos)
    K = ref[np.ix_(order, order)]
    assert not np.any(np.tril(K, -layout.band_rows))
    lower = np.array([np.pad(np.diagonal(K, -r), (0, r)) for r in range(layout.band_rows)])
    assert abs(band - lower).max() <= 1e-14 * abs(ref).max()
    b = rng.standard_normal(ref.shape[0])
    x = layout.factor(band).solve(b)
    assert np.linalg.norm(x - np.linalg.solve(ref, b)) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("grid", [mo.interval_grid(-1.0, 2.0, 23), mo.radial_grid(1.3, 19, 3)],
                         ids=["interval", "radial"])
def test_stiffness_layout_is_rectangle_only(grid):
    # a 1-d energy is the flux recursion, which needs no band
    with pytest.raises(mo.UnsupportedGrid, match="rectangles only"):
        grid.stiffness_layout


def test_repeated_stiffness_is_identical():
    # the cached layout must not be changed by the bands built from it
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 9, 7)
    w = np.where(np.arange(g.n_cells) % 5 == 0, 0.0, 1.0)
    layout = g.stiffness_layout
    first = layout.band(w)
    for _ in range(3):
        layout.factor(layout.band(np.ones(g.n_cells)))  # factored in place
        again = layout.band(w)
        again[:] = -1.0  # a caller may write into its own band
    assert np.array_equal(_bits(layout.band(w)), _bits(first))
    assert g.stiffness_layout is layout


@pytest.mark.parametrize("nx, ny", [(34, 56), (56, 45), (64, 64), (1, 9), (9, 1), (2, 7),
                                    (7, 2), (2, 2)])
def test_unit_stiffness_sine_solve_matches_band(nx, ny):
    # the sine transforms solve G^T G x = b as the banded Cholesky factor
    # does, on either band numbering (56x45 runs it column by column), on an
    # empty interior and on a one-node-wide one
    g = mo.rectangle_grid(-0.5, 1.0, 0.0, 2.5, nx, ny)
    idx = g.interior_idx
    b = np.random.default_rng(nx * ny).standard_normal(idx.size)
    x = g.unit_stiffness.solve(b)
    ref = mo.grids.stiffness_factor(g, np.ones(g.n_cells)).solve(b)
    assert x.shape == ref.shape == (idx.size,)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    u = np.zeros(g.n_nodes)
    u[idx] = x
    residual = g.gradient_adjoint(g.gradient_apply(u))[idx] - b
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(b)
    assert g.unit_stiffness is g.unit_stiffness


def test_unit_stiffness_is_rectangle_only():
    with pytest.raises(mo.UnsupportedGrid, match="rectangles only"):
        mo.interval_grid(-1.0, 2.0, 23).unit_stiffness


def test_grid_with_layout_is_freed_without_the_collector():
    # the cached layout holds no reference back to its grid, so dropping the
    # grid frees it at once, not at the next cyclic collection
    g = mo.rectangle_grid(0.0, 1.0, 0.0, 1.0, 9, 7)
    mo.grids.stiffness_factor(g, mo.grids.with_atoms(g, g.cell_volumes,
                                                     [(np.array([0.4, 0.5]), 1.0)]))
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_grids_module_imports_no_sparse_matrices():
    # every stiffness is a band and every gradient a stencil; grids is
    # imported under a bare package, so this holds whatever the rest of the
    # package imports
    code = """
import sys, types
pkg = types.ModuleType("massopt")
pkg.__path__ = [sys.argv[1]]
sys.modules["massopt"] = pkg
import massopt.grids
loaded = sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
assert not loaded, loaded
"""
    pkg_dir = os.path.dirname(os.path.abspath(mo.__file__))
    proc = subprocess.run([sys.executable, "-c", code, pkg_dir],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_imports_no_sparse_matrices():
    # only recovery's island search uses scipy.sparse, and it imports it
    # when a measure leaves some cell without weight
    code = """
import sys
import massopt
loaded = sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
assert not loaded, loaded
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mo.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
