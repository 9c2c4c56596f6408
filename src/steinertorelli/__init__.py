"""Executable checks of Torelli-type statements for Steiner bundles.

A Steiner bundle on a projective space |V| is presented by a tensor
mu : U1 (x) V -> U0 with mu(u (x) v) != 0 for all nonzero decomposable
arguments.  This package builds such presentations from explicit geometric
scenes, scans for unstable hyperplanes over prime fields, computes the
Koszul cohomology groups driving the theory, and packages the resulting
recovery statements as reproducible reports.

Everything is exact: prime fields use canonical integer representatives,
characteristic zero uses Fractions, and no floating point number appears
anywhere in a mathematical statement.
"""

from .exactfield import GF, QQ, Matrix, rank, rank_kernel

__all__ = ["GF", "QQ", "Matrix", "rank", "rank_kernel"]

__version__ = "0.1.0"
