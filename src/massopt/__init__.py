"""Numerical mass optimization with convex costs.

Solves compliance minimization penalized by a convex cost functional on
measures: the auxiliary variational problem is minimized with a certified
duality gap (the exact flux certificate in 1-d, damped Newton on
rectangles, smoothed where the cost needs it), the optimal conductivity is
the density the solver's flux carries, and every optimality condition is
verified numerically against the recovered measure.

Costs are the builtin closed forms (quadratic, power, linear,
reciprocal), piecewise-linear tables, expressions in ``t`` and their
regularizations ``c + eps t^2``; the conjugate of an expression or a
regularized cost is evaluated by bisection on its upper derivative.
"""

from .costs import (CostFunction, builtin_cost, expression_cost, linear_cost,
                    power_cost, quadratic_cost, reciprocal_cost, regularized_cost,
                    subdiff_interval, tabulated_cost, validate_cost)
from .errors import (AtomOutsideGrid, ConfigError, InadmissibleSource, InvalidCost,
                     MassOptError, NonMonotoneQuotient, NotConverged,
                     NumericOverflow, OutsideDomain, RegimeMismatch,
                     ScheduleTooShort, TooLarge, Unbounded, UnknownFixture,
                     UnsupportedGrid)
from .grids import (DiscreteMeasure, Grid, ScalarField, SourceTerm, VectorField,
                    divergence_weighted, interval_grid, radial_grid, read_field_csv,
                    read_measure, rectangle_grid, sphere_surface, write_field_csv,
                    write_measure)
from .oracle import (ClosedFormFixture, brute_force_min, fixture, fixture_errors,
                     fixture_names)
from .recovery import (EnergyResult, OptimalityReport, RegularizationDiagnostics,
                       cost_eval, energy_eval, recover_measure,
                       recover_via_regularization, solution_like,
                       verify_conditions)
from .solver import (AuxiliaryProblem, AuxiliarySolution, SolverParams,
                     build_problem, feasible_flux_1d, objective_eval,
                     objective_gradient, require_converged,
                     solve_auxiliary)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
