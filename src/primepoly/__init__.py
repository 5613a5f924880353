"""Exact-arithmetic census of prime values of reducible polynomials."""

__version__ = "0.1.0"
