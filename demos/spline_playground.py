"""Tour of the spline building blocks: grids, evaluation, refits.

Run: python demos/spline_playground.py
"""

import numpy as np

from adaptkan import (
    GridDomain,
    activation_dz,
    eval_activation,
    greville_abscissae,
    refine_grid,
    refit_greville,
    refit_least_squares,
)
from adaptkan.spline import basis, dense_basis, window_columns

rng = np.random.default_rng(0)

# A grid domain is an interval split into uniform sub-intervals; a spline
# activation on it carries omega + k weights.
dom = GridDomain(-1.0, 1.0, omega=5)
print(f"domain [{dom.a}, {dom.b}] with {dom.omega} intervals of width {dom.d}")
print(f"weights per activation: {dom.n_coef}")

# Equal weights give a constant function (the basis sums to one everywhere).
w_const = np.full(dom.n_coef, 2.5)
z = np.linspace(-1.2, 1.2, 7)
print("\nconstant weights 2.5 evaluated on", z)
print(" ->", eval_activation(z, w_const, dom))

# Weights sampled from a line at the Greville points reproduce that line.
g = greville_abscissae(dom.a, dom.b, dom.omega)
print("\nGreville abscissae:", g)
w_line = 3.0 * g - 0.5
print("line 3z - 0.5 at z=0.37:", eval_activation(0.37, w_line, dom))
print("derivative there:", activation_dz(0.37, w_line, dom))

# The weight gradient is the local basis window: nonnegative, sums to 1.
# basis() gives the four nonzero values and the interval they start at;
# dense_basis() scatters them into a row of all omega + k weights.
bins, (window,) = basis(np.array([[0.37]]), dom.a, dom.d, dom.omega)
grad_w = dense_basis(window_columns(bins, dom.n_coef), window, np.empty((1, dom.n_coef)))[0]
print("\nbasis window at 0.37:", np.round(grad_w, 4), "sum:", grad_w.sum())

# Refitting moves a layer's splines to new domains. It takes the weight rows
# (J, m, omega + 3) of J features with their old and new bounds as (J,)
# arrays. The exact route solves a dense least-squares problem; the Greville
# route just re-interpolates weights. Note the stretch keeps the interval
# count, so resolution drops and random wiggly splines cannot be carried
# over exactly (lines and constants can).
w_rand = rng.standard_normal(dom.n_coef)
wide = GridDomain(-2.0, 2.0, omega=5)
rows = w_rand[None, None]  # one feature, one output
bounds = ([dom.a], [dom.b], [wide.a], [wide.b], dom.omega, wide.omega)
w_exact, max_err = refit_least_squares(rows, *bounds)
w_exact = w_exact[0, 0]
w_fast = refit_greville(rows, *bounds)[0, 0]
probe = np.linspace(-0.9, 0.9, 5)
print("\nrefit to [-2, 2]:")
print("  original   ", np.round(eval_activation(probe, w_rand, dom), 4))
print("  exact refit", np.round(eval_activation(probe, w_exact, wide), 4))
print("  fast refit ", np.round(eval_activation(probe, w_fast, wide), 4))
print("  exact-refit max residual on fit grid:", f"{max_err[0]:.2e}")

# Refinement keeps the domain but adds resolution.
w_fine = refine_grid(rows, [dom.a], [dom.b], dom.omega, 40)[0][0, 0]
dom_fine = GridDomain(dom.a, dom.b, omega=40)
err = np.abs(eval_activation(probe, w_fine, dom_fine)
             - eval_activation(probe, w_rand, dom)).max()
print(f"\nrefined 5 -> 40 intervals; function change at probes: {err:.2e}")
