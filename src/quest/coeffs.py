"""Coefficient matrix construction.

Every 3-point subset of the correspondences yields a 6x6 matrix whose
columns mix the symbolic rotation applied to first-view points with the
constant second-view points; the depth vector of the subset is in its null
space, so its determinant vanishes. The determinant is a homogeneous
degree-6 polynomial in (w, x, y, z) that always contains the factor
N = w^2 + x^2 + y^2 + z^2; dividing it out leaves one degree-4 equation in
the 35 canonical monomials per subset. Stacking one row per subset gives
the coefficient matrix A with A @ x = 0 for the monomial vector x of the
true rotation.

The row builder writes that quotient in closed form and never forms the
degree-6 determinant. R is the rotation formula on a general quaternion,
so R = N times the rotation matrix and R a x R b = N R(a x b). With it the
determinant of triple (i, j, k) is N (G(i,k) H(k,j) - G(j,k) H(k,i)), where

    G(p, q) = (R m_p) . (n_p x n_q)    and    H(q, p) = (R (m_q x m_p)) . n_p

are quadratics in the quaternion. Each is y . R x for a pair of 3-vectors,
a fixed map from the nine products x_c y_r to 10 coefficients, and the
product of two quadratics is a fixed map from their 100 coefficient
products to 35; both maps are built once at import. So build_A computes
all C(n, 3) rows in a few passes of array operations and returns them as
a plain C(n, 3) x 35 array, one row per triple in itertools.combinations
order (the triple index table is cached per n). `build_triple_matrix` and
the generic cofactor expansion in `polymat` stay as the test oracle the
rows are checked against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import Correspondence, _rays, _rotation_entries, monomial_positions, monomials_of_degree
from .errors import DegenerateTripleError, InsufficientPointsError
from .polymat import Poly4, PolyMatrix, ZERO

_DEG2 = monomials_of_degree(2)
_POS2 = monomial_positions(2)

# Symbolic rotation matrix: the numeric formula core._rotation_entries run
# on the variables (w, x, y, z), so each entry is a homogeneous quadratic.
# For a unit quaternion it equals the rotation matrix; for a general
# quaternion it carries an extra factor w^2 + x^2 + y^2 + z^2.
_R_ENTRIES = _rotation_entries(*map(Poly4.variable, range(4)))
R_POLY = PolyMatrix([_R_ENTRIES[r:r + 3] for r in (0, 3, 6)])

# R_POLY as one dense map over the degree-2 monomials: row 3c + r holds the
# coefficients of R[r, c], so it takes the products x_c y_r of two 3-vectors
# to the quadratic y . R x (9 rows x 10 monomials).
_RP = np.zeros((3, 3, len(_DEG2)))
for _r in range(3):
    for _c in range(3):
        for _exp, _coeff in R_POLY[_r, _c].terms.items():
            _RP[_c, _r, _POS2[_exp]] = _coeff
_RP = _RP.reshape(9, -1)


def _quadratic_product_map() -> np.ndarray:
    """0/1 map (100 x 35) from the flattened outer product of two quadratics'
    coefficient vectors to the coefficients of their product."""
    pos = monomial_positions(4)
    return np.array([np.eye(len(pos))[pos[tuple(np.add(ea, eb))]] for ea in _DEG2 for eb in _DEG2])


def _gather_map(dense: np.ndarray):
    """Tables for _apply_map of a linear map (rows x columns): source row and
    weight of term l of each column that has one, level l after level l - 1
    (columns by falling term count), the levels' offsets and the unsort."""
    count = np.count_nonzero(dense, axis=0)
    cols = np.argsort(-count, kind="stable")
    col, src = np.nonzero(dense[:, cols].T)
    term = np.arange(len(col)) - np.searchsorted(col, col)  # each nonzero's place in its column
    order = np.lexsort((col, term))
    starts = np.searchsorted(term[order], np.arange(count.max() + 1)).tolist()
    return src[order], dense[src[order], cols[col[order]]][:, None], starts, np.argsort(cols)


def _apply_map(x: np.ndarray, gmap) -> np.ndarray:
    """(x.T @ dense).T for gmap = _gather_map(dense) and x (rows x batch).
    An output adds its terms as reduceat does, a0 + (a1 + a2 + ...), so a
    column never depends on the others, as it would in BLAS's sums."""
    src, weight, starts, unsort = gmap
    terms = x[src]
    terms *= weight
    head, tail = terms[: starts[1]], terms[starts[1] : starts[2]]
    for s, e in zip(starts[2:-1], starts[3:]):
        tail[: e - s] += terms[s:e]
    head[: len(tail)] += tail
    return head[unsort]


_BILINEAR = _gather_map(_RP)
_MUL22 = _gather_map(_quadratic_product_map())

# A triple (i, j, k) needs four quadratics y . R x, in the order G(i,k),
# G(j,k), H(k,j), H(k,i):
#     x = m_i,       m_j,       m_k x m_j,  m_k x m_i
#     y = n_i x n_k, n_j x n_k, n_j,        n_i
# Pair p takes the cross product a x b of view _VIEW[p] (0 the first view,
# 1 the second) of the points in slots _A[p] and _B[p] (0 i, 1 j, 2 k),
# and the ray of the other view of the point in slot _RAY[p].
_VIEW, _A, _B, _RAY = np.array([1, 1, 0, 0]), [0, 1, 2, 2], [2, 2, 1, 0], [0, 1, 1, 0]


def build_triple_matrix(ci: Correspondence, cj: Correspondence, ck: Correspondence) -> PolyMatrix:
    """The 6x6 polynomial matrix whose null vector is (ui, vi, uj, vj, uk, vk).

    Rows 0-2 encode the translation-free constraint between points i and j,
    rows 3-5 the one between i and k. Odd columns (0-based 1, 3, 5) are
    constants; even columns are quadratics."""

    def rm(m):
        return [R_POLY[r, 0] * m[0] + R_POLY[r, 1] * m[1] + R_POLY[r, 2] * m[2] for r in range(3)]

    rmi, rmj, rmk = rm(ci.m), rm(cj.m), rm(ck.m)
    rows = [[rmi[r], Poly4.constant(-ci.n[r]), -1.0 * rmj[r], Poly4.constant(cj.n[r]), ZERO, ZERO]
            for r in range(3)]
    rows += [[rmi[r], Poly4.constant(-ci.n[r]), ZERO, ZERO, -1.0 * rmk[r], Poly4.constant(ck.n[r])]
             for r in range(3)]
    return PolyMatrix(rows)


# Triples per pass of the row kernel: at ~4 KB of temporaries per triple a
# pass stays in cache. A row does not depend on the others in its pass.
_TRIPLES_PER_PASS = 256


def _rows(M: np.ndarray, N: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Unit-norm constraint rows, one per triple, from the closed form
    G(i,k) H(k,j) - G(j,k) H(k,i) of the module docstring, built for
    _TRIPLES_PER_PASS triples at once.

    M and N hold the first- and second-view rays of the points (n x 3);
    triples holds the point indices of each row (T x 3). Each row is the
    6x6 determinant divided by the norm polynomial, scaled to unit norm
    and sign-fixed so its first non-negligible coefficient is positive.
    Raises DegenerateTripleError naming the first triple whose row
    vanishes."""
    rays = np.stack([M.T, N.T], axis=1)  # (entry, view, point)
    return np.concatenate([_triple_rows(rays, triples[s:s + _TRIPLES_PER_PASS])
                           for s in range(0, len(triples), _TRIPLES_PER_PASS)])


def _triple_rows(rays: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """The rows of _rows for the triples of one pass. Batch-last throughout,
    with elementwise operations and gathers only, so a row never depends on
    the others in its pass."""
    t = len(triples)
    r = rays[:, :, triples.T]  # (entry, view, slot, triple)
    a, b, ray = r[:, _VIEW, _A], r[:, _VIEW, _B], r[:, 1 - _VIEW, _RAY]  # (entry, pair, triple)
    cross = a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]
    x = np.concatenate([ray[:, :2], cross[:, 2:]], axis=1)
    y = np.concatenate([cross[:, :2], ray[:, 2:]], axis=1)
    xy = (x[:, None] * y[None]).reshape(9, -1)  # x_c y_r in row 3c + r, as in _RP
    quad = _apply_map(xy, _BILINEAR).reshape(len(_DEG2), 4, t)
    prod = quad[:, None, 0] * quad[None, :, 2]
    prod -= quad[:, None, 1] * quad[None, :, 3]
    quot = np.ascontiguousarray(_apply_map(prod.reshape(-1, t), _MUL22).T)
    bad = np.abs(quot).max(axis=1) < 1e-12
    if bad.any():
        triple = tuple(triples[int(np.argmax(bad))].tolist())
        raise DegenerateTripleError(
            f"triple {triple}: constraint row vanished (repeated or collinear points?)")
    rows = quot / np.linalg.norm(quot, axis=1, keepdims=True)
    first = np.argmax(np.abs(rows) > 1e-12, axis=1)
    return rows * np.copysign(1.0, rows[np.arange(t), first])[:, None]


def coefficient_row(ci: Correspondence, cj: Correspondence, ck: Correspondence) -> np.ndarray:
    """One unit-norm constraint row (35 monomial coefficients) for a triple:
    the row build_A makes for it, from the same kernel."""
    return _rows(*_rays([ci, cj, ck]), np.array([(0, 1, 2)]))[0]


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
    return _rows(*_rays(points), _triples(n))
