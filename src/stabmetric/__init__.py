"""Metric geometry of Bridgeland stability spaces.

Explicit models (translation orbits, the R^4 sup-metric and its
quotient, the Kronecker strip), curvature certificates (CAT(0) and
slimness violations, non-unique geodesics), and pseudo-Anosov dynamics
on the elliptic-curve model.
"""

__version__ = "0.1.0"
