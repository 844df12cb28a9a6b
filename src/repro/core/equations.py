"""The permutation index equations of Sections 3 and 4.

This module is the algorithmic heart of the reproduction.  It implements, in
both scalar (paper-mirroring) and vectorized (production) form, every index
equation used by the decomposed transposition:

=====================  ======  ====================================================
name                   paper   role
=====================  ======  ====================================================
``rotate_r``           Eq. 23  C2R pre-rotation gather (columns rotated by ``j//b``)
``dprime``             Eq. 24  row-shuffle destination column (scatter form)
``dprime_inverse``     Eq. 31  row-shuffle gather form (via ``mmi(a, b)``)
``sprime``             Eq. 26  column-shuffle gather source row
``rotate_p``           Eq. 32  column-rotation factor of the column shuffle
``permute_q``          Eq. 33  static row-permutation factor of the column shuffle
``permute_q_inverse``  Eq. 34  gather form of the row permutation (via ``mmi(b, a)``)
``rotate_p_inverse``   Eq. 35  inverse column rotation (R2C)
``rotate_r_inverse``   Eq. 36  inverse pre-rotation (R2C post-rotation)
=====================  ======  ====================================================

The decomposition identity proved in Section 4.2 — ``(p_j . q)(i) == s'_j(i)``
for gather composition — and the inversion identities are covered by the
property tests in ``tests/core/test_equations.py``.

All vectorized functions take a :class:`~repro.core.indexing.Decomposition`
and numpy index arrays; they return ``int64`` arrays and never touch matrix
data.  Whole-matrix index-plan builders used by the blocked kernels live here
too (``rotate_r_matrix`` and friends).
"""

from __future__ import annotations

import numpy as np

from .indexing import Decomposition
from .numbertheory import mmi

__all__ = [
    "rotate_r",
    "rotate_r_inverse",
    "d_dest",
    "dprime",
    "dprime_inverse",
    "sprime",
    "sprime_inverse",
    "rotate_p",
    "rotate_p_inverse",
    "permute_q",
    "permute_q_inverse",
    "rotate_r_v",
    "rotate_r_inverse_v",
    "dprime_v",
    "dprime_inverse_v",
    "sprime_v",
    "sprime_inverse_v",
    "dprime_tables",
    "rotate_p_v",
    "rotate_p_inverse_v",
    "permute_q_v",
    "permute_q_inverse_v",
    "rotate_r_matrix",
    "rotate_r_inverse_matrix",
    "dprime_matrix",
    "dprime_inverse_matrix",
    "sprime_matrix",
    "sprime_inverse_matrix",
    "rotate_p_matrix",
    "rotate_p_inverse_matrix",
]


# ---------------------------------------------------------------------------
# Scalar forms
# ---------------------------------------------------------------------------

def d_dest(dec: Decomposition, i: int, j: int) -> int:
    """Unrotated destination column ``d_i(j) = (i + j*m) mod n`` (Eq. 22).

    Periodic with period ``b`` (Lemma 1); bijective only when ``c == 1``.
    """
    return (i + j * dec.m) % dec.n


def rotate_r(dec: Decomposition, i: int, j: int) -> int:
    """Pre-rotation gather row (Eq. 23): ``r_j(i) = (i + j//b) mod m``.

    Column ``j`` of the rotated array gathers from row ``r_j(i)`` of the
    source, i.e. column ``j`` is rotated upward by ``j // b`` positions.
    """
    return (i + j // dec.b) % dec.m


def rotate_r_inverse(dec: Decomposition, i: int, j: int) -> int:
    """Inverse pre-rotation gather row (Eq. 36): ``(i - j//b) mod m``."""
    return (i - j // dec.b) % dec.m


def dprime(dec: Decomposition, i: int, j: int) -> int:
    """Post-rotation destination column (Eq. 24).

    ``d'_i(j) = (((i + j//b) mod m) + j*m) mod n`` — the scatter target of
    element ``j`` in row ``i`` during the row shuffle.  Theorem 3 proves this
    is a bijection on ``[0, n)`` for every fixed row ``i``.
    """
    return ((i + j // dec.b) % dec.m + j * dec.m) % dec.n


def _f_helper(dec: Decomposition, i: int, j: int) -> int:
    """The helper ``f(i, j)`` from Section 4.2 (used by Eq. 31)."""
    base = j + i * (dec.n - 1)
    if i - (j % dec.c) + dec.c <= dec.m:
        return base
    return base + dec.m


def dprime_inverse(dec: Decomposition, i: int, j: int) -> int:
    """Gather form of the row shuffle (Eq. 31).

    ``d'^{-1}_i(j) = (a^{-1} * floor(f(i,j)/c)) mod b + (f(i,j) mod c) * b``
    with ``a^{-1} = mmi(a, b)``.  Satisfies
    ``dprime(dec, i, dprime_inverse(dec, i, j)) == j``.
    """
    a_inv = mmi(dec.a, dec.b)
    f = _f_helper(dec, i, j)
    return (a_inv * (f // dec.c)) % dec.b + (f % dec.c) * dec.b


def sprime(dec: Decomposition, i: int, j: int) -> int:
    """Column-shuffle gather source row (Eq. 26).

    ``s'_j(i) = (j + i*n - i//a) mod m`` — corrects the plain C2R source row
    ``s_j(i) = (j + i*n) mod m`` (Eq. 25) for the pre-rotation (Theorem 5).
    """
    return (j + i * dec.n - i // dec.a) % dec.m


def rotate_p(dec: Decomposition, i: int, j: int) -> int:
    """Column-rotation factor of the column shuffle (Eq. 32).

    ``p_j(i) = (i + j) mod m``; column ``j`` rotates upward by ``j``.
    """
    return (i + j) % dec.m


def rotate_p_inverse(dec: Decomposition, i: int, j: int) -> int:
    """Inverse column rotation (Eq. 35): ``(i - j) mod m``."""
    return (i - j) % dec.m


def permute_q(dec: Decomposition, i: int) -> int:
    """Static row permutation (Eq. 33): ``q(i) = (i*n - i//a) mod m``.

    Identical for every column, hence implementable as register renaming on a
    SIMD machine (Section 6.2.3).  ``(p_j . q)(i) == s'_j(i)`` under gather
    composition.
    """
    return (i * dec.n - i // dec.a) % dec.m


def permute_q_inverse(dec: Decomposition, i: int) -> int:
    """Gather form of the row permutation (Eq. 34).

    ``q^{-1}(i) = (floor((c - 1 + i)/c) * b^{-1}) mod a + (((c-1)*i) mod c) * a``
    with ``b^{-1} = mmi(b, a)``.
    """
    b_inv = mmi(dec.b, dec.a)
    return (((dec.c - 1 + i) // dec.c) * b_inv) % dec.a + (
        ((dec.c - 1) * i) % dec.c
    ) * dec.a


def sprime_inverse(dec: Decomposition, i: int, j: int) -> int:
    """Inverse column shuffle, fused: ``s'^{-1}_j(i) = q^{-1}((i - j) mod m)``.

    Not numbered in the paper but implied by Section 4.3: the inverse of the
    column shuffle ``s'_j = p_j . q`` under gather composition is
    ``q^{-1} . p^{-1}_j``, which fuses into a single per-column gather.  This
    keeps the R2C transpose at three passes, preserving the Theorem 6 bound.
    """
    return permute_q_inverse(dec, rotate_p_inverse(dec, i, j))


# ---------------------------------------------------------------------------
# Vectorized forms (int64 index arrays; no matrix data touched)
# ---------------------------------------------------------------------------

def _i64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64)


def rotate_r_v(dec: Decomposition, i, j) -> np.ndarray:
    """Vectorized Eq. 23."""
    return (_i64(i) + _i64(j) // dec.b) % dec.m


def rotate_r_inverse_v(dec: Decomposition, i, j) -> np.ndarray:
    """Vectorized Eq. 36."""
    return (_i64(i) - _i64(j) // dec.b) % dec.m


def dprime_v(dec: Decomposition, i, j) -> np.ndarray:
    """Vectorized Eq. 24."""
    j = _i64(j)
    return ((_i64(i) + j // dec.b) % dec.m + j * dec.m) % dec.n


def dprime_inverse_v(dec: Decomposition, i, j) -> np.ndarray:
    """Vectorized Eq. 31."""
    i = _i64(i)
    j = _i64(j)
    a_inv = mmi(dec.a, dec.b)
    base = j + i * (dec.n - 1)
    f = np.where(i - (j % dec.c) + dec.c <= dec.m, base, base + dec.m)
    return (a_inv * (f // dec.c)) % dec.b + (f % dec.c) * dec.b


def sprime_v(dec: Decomposition, i, j) -> np.ndarray:
    """Vectorized Eq. 26."""
    i = _i64(i)
    return (_i64(j) + i * dec.n - i // dec.a) % dec.m


def rotate_p_v(dec: Decomposition, i, j) -> np.ndarray:
    """Vectorized Eq. 32."""
    return (_i64(i) + _i64(j)) % dec.m


def rotate_p_inverse_v(dec: Decomposition, i, j) -> np.ndarray:
    """Vectorized Eq. 35."""
    return (_i64(i) - _i64(j)) % dec.m


def permute_q_v(dec: Decomposition, i) -> np.ndarray:
    """Vectorized Eq. 33."""
    i = _i64(i)
    return (i * dec.n - i // dec.a) % dec.m


def permute_q_inverse_v(dec: Decomposition, i) -> np.ndarray:
    """Vectorized Eq. 34."""
    i = _i64(i)
    b_inv = mmi(dec.b, dec.a)
    return (((dec.c - 1 + i) // dec.c) * b_inv) % dec.a + (
        ((dec.c - 1) * i) % dec.c
    ) * dec.a


def sprime_inverse_v(dec: Decomposition, i, j) -> np.ndarray:
    """Vectorized fused inverse column shuffle (see :func:`sprime_inverse`)."""
    return permute_q_inverse_v(dec, rotate_p_inverse_v(dec, i, j))


def dprime_tables(dec: Decomposition) -> tuple[np.ndarray, np.ndarray]:
    """Tables of Eq. 24 for evaluating ``d'`` in row bands.

    Returns ``(u, w)`` with ``u[t] = (t mod m) mod n`` for ``t < m + c``
    and ``w[j] = j*m mod n`` for ``j < n``, so that
    ``d'_i(j) = (u[i + j//b] + w[j]) mod n`` with the sum below ``2n``.  A
    row band of ``d'`` costs one ``(rows, c)`` table gather, widened ``b``
    times (the ``b`` columns of a group share ``j // b``), one add and one
    conditional subtraction, from ``O(max(m, n))`` tables.
    """
    t = np.arange(dec.m + dec.c, dtype=np.int64)
    return t % dec.m % dec.n, np.arange(dec.n, dtype=np.int64) * dec.m % dec.n


# ---------------------------------------------------------------------------
# Whole-matrix index plans (used by the blocked kernels)
# ---------------------------------------------------------------------------

def _grid(dec: Decomposition) -> tuple[np.ndarray, np.ndarray]:
    i = np.arange(dec.m, dtype=np.int64)[:, None]
    j = np.arange(dec.n, dtype=np.int64)[None, :]
    return i, j


def rotate_r_matrix(dec: Decomposition) -> np.ndarray:
    """``(m, n)`` gather-row matrix for the pre-rotation (Eq. 23)."""
    i, j = _grid(dec)
    return rotate_r_v(dec, i, j)


def rotate_r_inverse_matrix(dec: Decomposition) -> np.ndarray:
    """``(m, n)`` gather-row matrix for the inverse pre-rotation (Eq. 36)."""
    i, j = _grid(dec)
    return rotate_r_inverse_v(dec, i, j)


def dprime_matrix(dec: Decomposition) -> np.ndarray:
    """``(m, n)`` destination-column matrix ``d'_i(j)`` (Eq. 24)."""
    i, j = _grid(dec)
    return dprime_v(dec, i, j)


def dprime_inverse_matrix(dec: Decomposition) -> np.ndarray:
    """``(m, n)`` gather-column matrix ``d'^{-1}_i(j)`` (Eq. 31)."""
    i, j = _grid(dec)
    return dprime_inverse_v(dec, i, j)


def sprime_matrix(dec: Decomposition) -> np.ndarray:
    """``(m, n)`` gather-row matrix ``s'_j(i)`` (Eq. 26)."""
    i, j = _grid(dec)
    return sprime_v(dec, i, j)


def sprime_inverse_matrix(dec: Decomposition) -> np.ndarray:
    """``(m, n)`` gather-row matrix for the fused inverse column shuffle."""
    i, j = _grid(dec)
    return sprime_inverse_v(dec, i, j)


def rotate_p_matrix(dec: Decomposition) -> np.ndarray:
    """``(m, n)`` gather-row matrix for the column rotation (Eq. 32)."""
    i, j = _grid(dec)
    return rotate_p_v(dec, i, j)


def rotate_p_inverse_matrix(dec: Decomposition) -> np.ndarray:
    """``(m, n)`` gather-row matrix for the inverse rotation (Eq. 35)."""
    i, j = _grid(dec)
    return rotate_p_inverse_v(dec, i, j)
