"""Coefficient matrix construction.

Every 3-point subset of the correspondences yields a 6x6 matrix whose
columns mix the symbolic rotation applied to first-view points with the
constant second-view points; the depth vector of the subset is in its null
space, so its determinant vanishes. The determinant is a homogeneous
degree-6 polynomial in (w, x, y, z) that always contains the factor
w^2 + x^2 + y^2 + z^2; dividing it out leaves one degree-4 equation in the
35 canonical monomials per subset. Stacking one row per subset gives the
coefficient matrix A with A @ x = 0 for the monomial vector x of the true
rotation.

The row builder never expands a determinant symbolically. Each point
contributes three quadratic factors (2x2 minors of its two columns), the
generalized Laplace expansion along the two columns of the first point
writes the determinant as six signed products of one factor per point,
and polynomial products and the division by the norm polynomial are
fixed linear maps over the monomial bases, built once at import. So
build_A computes all C(n, 3) rows in one batched pass of a few array
operations and returns them as a plain C(n, 3) x 35 array, one row per
triple in itertools.combinations order (the triple index table is cached
per n). `build_triple_matrix` and the generic cofactor expansion in
`polymat` stay as the test oracle the rows are checked against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import Correspondence, monomial_positions, monomials_of_degree
from .errors import DegenerateTripleError, InsufficientPointsError
from .polymat import Poly4, PolyMatrix, ZERO, poly_add, poly_scale

_DEG2 = monomials_of_degree(2)
_DEG4 = monomials_of_degree(4)
_DEG6 = monomials_of_degree(6)
_POS2 = monomial_positions(2)
_POS4 = monomial_positions(4)
_POS6 = monomial_positions(6)

# Symbolic rotation matrix: each entry a homogeneous quadratic in
# (w, x, y, z). For a unit quaternion it equals the rotation matrix; for a
# general quaternion it carries an extra factor w^2 + x^2 + y^2 + z^2.
_R_TERMS = [
    [
        {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): -1, (0, 0, 0, 2): -1},
        {(0, 1, 1, 0): 2, (1, 0, 0, 1): -2},
        {(0, 1, 0, 1): 2, (1, 0, 1, 0): 2},
    ],
    [
        {(0, 1, 1, 0): 2, (1, 0, 0, 1): 2},
        {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 2, 0): 1, (0, 0, 0, 2): -1},
        {(0, 0, 1, 1): 2, (1, 1, 0, 0): -2},
    ],
    [
        {(0, 1, 0, 1): 2, (1, 0, 1, 0): -2},
        {(0, 0, 1, 1): 2, (1, 1, 0, 0): 2},
        {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 2, 0): -1, (0, 0, 0, 2): 1},
    ],
]

R_POLY = PolyMatrix([[Poly4(t) for t in row] for row in _R_TERMS])

# R_POLY as one dense matrix over the degree-2 monomials: row t maps the
# ray entry m_t to the three rows of R m, (3, 3 rows x 10 monomials).
_RP = np.zeros((3, 3, len(_DEG2)))
for _r in range(3):
    for _c in range(3):
        for _exp, _coeff in R_POLY[_r, _c].terms.items():
            _RP[_c, _r, _POS2[_exp]] = _coeff
_RP = _RP.reshape(3, -1)


def _product_map(left: int, right: int) -> np.ndarray:
    """0/1 map from the flattened outer product of a degree-`left` and a
    degree-`right` coefficient vector to the coefficients of the product."""
    lhs, rhs = monomials_of_degree(left), monomials_of_degree(right)
    pos = monomial_positions(left + right)
    out = np.zeros((len(lhs) * len(rhs), len(pos)))
    for a, ea in enumerate(lhs):
        for b, eb in enumerate(rhs):
            out[a * len(rhs) + b, pos[tuple(np.add(ea, eb))]] = 1.0
    return out


def _division_maps():
    """Quotient (84x35) and remainder (84x49) maps of the long division of
    a degree-6 vector by the norm polynomial, made by dividing every unit
    vector at once (one row of `work` each). In descending-lex order, a
    monomial w^a x^b y^c z^d with a >= 2 moves into the quotient and
    subtracts its three cross terms; the monomials with a < 2 remain."""
    work = np.eye(len(_DEG6))
    quot = np.zeros((len(_DEG6), len(_DEG4)))
    rem = []
    for i, (a, b, c, d) in enumerate(_DEG6):
        if a < 2:
            rem.append(i)
            continue
        quot[:, _POS4[(a - 2, b, c, d)]] = work[:, i]
        for sub in ((a - 2, b + 2, c, d), (a - 2, b, c + 2, d), (a - 2, b, c, d + 2)):
            work[:, _POS6[sub]] -= work[:, i]
    return quot, work[:, rem]


def _columns(dense: np.ndarray):
    """A linear map in sparse column form for _apply: source index and
    weight of each nonzero by output column, and where each column starts
    (no column of these maps is zero, as reduceat needs)."""
    col, src = np.nonzero(dense.T)
    return src, dense[src, col], np.searchsorted(col, np.arange(dense.shape[1]))


def _apply(x: np.ndarray, cmap) -> np.ndarray:
    """x @ dense for cmap = _columns(dense). Each output sums its few terms
    in a fixed order, so a row never depends on the other rows of x (BLAS
    reorders sums with the row count) and coefficient_row is bit-exact."""
    src, weight, starts = cmap
    terms = x[:, src]
    terms *= weight
    return np.add.reduceat(terms, starts, axis=1)


_MUL22 = _product_map(2, 2)
_MUL42 = _columns(_product_map(4, 2))
_DIVIDE = _columns(np.hstack(_division_maps()))  # 35 quotient then 49 remainder columns

# Factor p of a point is the quadratic (R m)_u * n_v - (R m)_v * n_u for
# the row pair (u, v) = (_PAIR_U[p], _PAIR_V[p]).
_PAIR_U, _PAIR_V = [0, 0, 1], [1, 2, 2]

# Generalized Laplace expansion along the two columns of point i: rows a
# (top block) and b (bottom block) for them leave independent 2x2 blocks
# for points j and k. One row per (a, b), a != b, in lexicographic order:
# factor of point i (pair (a, b) is factor a + b - 1), of point j (rows
# other than a: 2 - a), of point k (2 - b), and the Laplace sign
# (-1)^(a+b+1), negated when point i's pair is taken as (b, a).
_LAPLACE = np.array([(0, 2, 1, 1), (1, 2, 0, -1), (0, 1, 2, -1), (2, 1, 0, 1), (1, 0, 2, 1), (2, 0, 1, -1)])


def build_triple_matrix(ci: Correspondence, cj: Correspondence, ck: Correspondence) -> PolyMatrix:
    """The 6x6 polynomial matrix whose null vector is (ui, vi, uj, vj, uk, vk).

    Rows 0-2 encode the translation-free constraint between points i and j,
    rows 3-5 the one between i and k. Odd columns (0-based 1, 3, 5) are
    constants; even columns are quadratics."""

    def rm(m):
        return [
            poly_add(
                poly_add(poly_scale(R_POLY[r, 0], m[0]), poly_scale(R_POLY[r, 1], m[1])),
                poly_scale(R_POLY[r, 2], m[2]),
            )
            for r in range(3)
        ]

    rmi, rmj, rmk = rm(ci.m), rm(cj.m), rm(ck.m)
    rows = []
    for r in range(3):
        rows.append(
            [rmi[r], Poly4.constant(-ci.n[r]), poly_scale(rmj[r], -1.0), Poly4.constant(cj.n[r]), ZERO, ZERO]
        )
    for r in range(3):
        rows.append(
            [rmi[r], Poly4.constant(-ci.n[r]), ZERO, ZERO, poly_scale(rmk[r], -1.0), Poly4.constant(ck.n[r])]
        )
    return PolyMatrix(rows)


def _rows(M: np.ndarray, N: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Unit-norm constraint rows, one per triple, from fixed maps applied to
    all rows at once.

    M and N hold the first- and second-view rays of the points (n x 3);
    triples holds the point indices of each row (T x 3). Each row is the
    6x6 determinant divided by the norm polynomial, scaled to unit norm
    and sign-fixed so its first non-negligible coefficient is positive.
    Raises DegenerateTripleError naming the first triple whose row
    vanishes or whose norm factor fails to divide out (relative remainder
    above 1e-6)."""
    rm = (M[:, :, None] * _RP).sum(axis=1).reshape(-1, 3, len(_DEG2))
    factors = rm[:, _PAIR_U] * N[:, _PAIR_V, None] - rm[:, _PAIR_V] * N[:, _PAIR_U, None]
    fi, fj, fk, sign = _LAPLACE.T
    ki = factors[triples[:, :1], fi] * sign[:, None]
    kj = factors[triples[:, 1:2], fj]
    kk = factors[triples[:, 2:], fk]
    t = len(triples)
    # stacked products make one BLAS call per triple, so rows stay batch-independent
    x = (ki[..., :, None] * kj[..., None, :]).reshape(t, len(_LAPLACE), -1) @ _MUL22
    x = (x.transpose(0, 2, 1) @ kk).reshape(t, -1)  # six degree-4 x degree-2 products, summed
    det6 = _apply(x, _MUL42)
    divided = _apply(det6, _DIVIDE)
    quot = divided[:, : len(_DEG4)]
    rem = np.abs(divided[:, len(_DEG4) :]).max(axis=1)
    scale = np.abs(det6).max(axis=1)
    bad_rem = rem > 1e-6 * scale
    bad = bad_rem | (np.abs(quot).max(axis=1) < 1e-12)
    if bad.any():
        r = int(np.argmax(bad))
        why = "constraint row vanished (repeated or collinear points?)"
        if bad_rem[r]:
            why = f"norm-factor division left a relative remainder of {rem[r] / scale[r]:.3e}"
        raise DegenerateTripleError(f"triple {tuple(triples[r].tolist())}: {why}")
    rows = quot / np.linalg.norm(quot, axis=1, keepdims=True)
    first = np.argmax(np.abs(rows) > 1e-12, axis=1)
    return rows * np.copysign(1.0, rows[np.arange(t), first])[:, None]


def coefficient_row(ci: Correspondence, cj: Correspondence, ck: Correspondence) -> np.ndarray:
    """One unit-norm constraint row (35 monomial coefficients) for a triple:
    the row build_A makes for it, from the same kernel."""
    return _rows(np.array([ci.m, cj.m, ck.m]), np.array([ci.n, cj.n, ck.n]), np.array([(0, 1, 2)]))[0]


@lru_cache(maxsize=8)
def _triples(n: int) -> np.ndarray:
    """Point indices of every 3-point subset, in combinations order (read-only)."""
    triples = np.array(list(combinations(range(n), 3)))
    triples.flags.writeable = False
    return triples


def build_A(points) -> np.ndarray:
    """The coefficient matrix: one unit-norm row of 35 monomial coefficients
    per 3-point subset, in itertools.combinations order: 6 points -> 20x35,
    7 -> 35x35, 8 -> 56x35."""
    points = list(points)
    n = len(points)
    if n < 6:
        raise InsufficientPointsError(f"need at least 6 correspondences, got {n}")
    M = np.array([c.m for c in points])
    N = np.array([c.n for c in points])
    return _rows(M, N, _triples(n))
