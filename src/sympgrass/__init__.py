"""Symplectic Grassmann codes over GF(q): construction and exact verification."""

__version__ = "0.1.0"
