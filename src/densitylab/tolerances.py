"""Default tolerances shared by the suites and the scenario defaults.

Double-precision headroom, see the module docstrings of the suites.  This
module imports nothing, so reading a default loads no suite and no numpy.
"""

TOL_ALG = 1e-9        # algebraic residuals on analytic jets
TOL_QUAD = 1e-8       # throat period: |T_N - T_2N| of the trapezoid rule
TOL_INTEGRAL = 1e-7   # first-integral point spread
TOL_SING = 1e-12      # singularity guards
