"""Synthetic graph datasets spread evenly over a metric space.

The pipeline: generate a naive RMAT baseline, histogram it on a metric grid
and a normalized parameter grid, fit Beta distributions over the parameters
with a bargaining objective, then sample the result dataset from the fit.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
