"""Spectral pencil and weighted-space index toolkit for elliptic operators on R^n."""

__version__ = "0.1.0"
