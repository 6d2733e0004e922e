"""Exact references that the tests hold the package against: the matrix
model of a reflection, and the rank over Q of a rational matrix."""

from fractions import Fraction
from math import lcm

import numpy as np

from crg.tensor import _ExactSpan


def reflection_matrix(refl) -> np.ndarray:
    """I - 2 a (x) phi / (phi . a) for the root a and coform phi of `refl`,
    as an object array of CycNum."""
    a = np.array(refl.root, dtype=object)
    phi = np.array(refl.coform, dtype=object)
    return np.identity(len(a), dtype=object) + np.outer(a, (-2 / (phi @ a)) * phi)


def entries(refl) -> tuple:
    """The reflection matrix of `refl` row by row, as one tuple."""
    return tuple(reflection_matrix(refl).flat)


def rank(rows) -> int:
    """Exact rank over Q of a matrix of ints or Fractions, given by its rows:
    each row is scaled to integers, and `tensor._ExactSpan` counts the
    independent ones."""
    rows = [[Fraction(x) for x in row] for row in rows]
    span = _ExactSpan(len(rows[0]))
    independent = 0
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        independent += span.add(np.array([int(x * den) for x in row], dtype=object))
    return independent
