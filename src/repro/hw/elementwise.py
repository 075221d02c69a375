"""Scalar-or-array arithmetic for the cost models.

Every per-chunk cost formula (the hardware models, the assembly hit rate,
the engines' chunk costs) takes either Python scalars — an engine pricing
one chunk kind of one run — or NumPy arrays — ``predict_grid`` pricing one
chunk kind per sweep point. The helpers below are the only places the two
forms differ: scalars go through the builtins, so an engine pays no ufunc
dispatch, and arrays go through the elementwise NumPy operation. Both
round the same way under IEEE-754, so a scalar input and the matching
array element give the same float.
"""

from __future__ import annotations

import numpy as np


def maximum(a, b):
    """``max(a, b)``, elementwise when either side is an array."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def minimum(a, b):
    """``min(a, b)``, elementwise when either side is an array."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def where(cond, a, b):
    """``a if cond else b``, elementwise when ``cond`` is an array.

    Both branches are evaluated by the caller, so each must be defined
    (no division by zero) on every input."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def any_true(cond) -> bool:
    """Does ``cond`` hold anywhere? (validation of scalar or array inputs)"""
    if isinstance(cond, np.ndarray):
        return bool(cond.any())
    return bool(cond)


def trunc_int(x):
    """``int(x)`` (truncation toward zero), elementwise on arrays."""
    if isinstance(x, np.ndarray):
        return x.astype(np.int64)
    return int(x)
