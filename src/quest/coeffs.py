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

from .core import Correspondence, _rays, _rotation_entries, monomial_positions, monomials_of_degree
from .errors import DegenerateTripleError, InsufficientPointsError
from .polymat import Poly4, PolyMatrix, ZERO

_DEG2 = monomials_of_degree(2)
_DEG4 = monomials_of_degree(4)
_DEG6 = monomials_of_degree(6)
_POS2 = monomial_positions(2)
_POS4 = monomial_positions(4)
_POS6 = monomial_positions(6)

# Symbolic rotation matrix: the numeric formula core._rotation_entries run
# on the variables (w, x, y, z), so each entry is a homogeneous quadratic.
# For a unit quaternion it equals the rotation matrix; for a general
# quaternion it carries an extra factor w^2 + x^2 + y^2 + z^2.
_R_ENTRIES = _rotation_entries(*map(Poly4.variable, range(4)))
R_POLY = PolyMatrix([_R_ENTRIES[r:r + 3] for r in (0, 3, 6)])

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


_MUL22 = _product_map(2, 2)
_MUL42 = _gather_map(_product_map(4, 2))
_DIVIDE = _gather_map(np.hstack(_division_maps()))  # 35 quotient then 49 remainder columns

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
        return [R_POLY[r, 0] * m[0] + R_POLY[r, 1] * m[1] + R_POLY[r, 2] * m[2] for r in range(3)]

    rmi, rmj, rmk = rm(ci.m), rm(cj.m), rm(ck.m)
    rows = [[rmi[r], Poly4.constant(-ci.n[r]), -1.0 * rmj[r], Poly4.constant(cj.n[r]), ZERO, ZERO]
            for r in range(3)]
    rows += [[rmi[r], Poly4.constant(-ci.n[r]), ZERO, ZERO, -1.0 * rmk[r], Poly4.constant(ck.n[r])]
             for r in range(3)]
    return PolyMatrix(rows)


# Triples per pass of the row kernel: at ~8 KB of temporaries per triple a
# pass stays in cache. A row does not depend on the others in its pass.
_TRIPLES_PER_PASS = 64


def _rows(M: np.ndarray, N: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """Unit-norm constraint rows, one per triple, from fixed maps applied to
    _TRIPLES_PER_PASS rows at once.

    M and N hold the first- and second-view rays of the points (n x 3);
    triples holds the point indices of each row (T x 3). Each row is the
    6x6 determinant divided by the norm polynomial, scaled to unit norm
    and sign-fixed so its first non-negligible coefficient is positive.
    Raises DegenerateTripleError naming the first triple whose row
    vanishes or whose norm factor fails to divide out (relative remainder
    above 1e-6)."""
    rm = (M[:, :, None] * _RP).sum(axis=1).reshape(-1, 3, len(_DEG2))
    factors = rm[:, _PAIR_U] * N[:, _PAIR_V, None] - rm[:, _PAIR_V] * N[:, _PAIR_U, None]
    return np.concatenate([_triple_rows(factors, triples[s:s + _TRIPLES_PER_PASS])
                           for s in range(0, len(triples), _TRIPLES_PER_PASS)])


def _triple_rows(factors: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """The rows of _rows for the triples of one pass, from the quadratic
    factors of every point."""
    fi, fj, fk, sign = _LAPLACE.T
    ki = factors[triples[:, :1], fi] * sign[:, None]
    kj = factors[triples[:, 1:2], fj]
    kk = factors[triples[:, 2:], fk]
    t = len(triples)
    # stacked products make one BLAS call per triple, so rows stay batch-independent
    # (einsum may give +0.0 for a -0.0 product; the matmul's sums start at +0.0 anyway)
    x = np.einsum("tli,tlj->tlij", ki, kj).reshape(t, len(_LAPLACE), -1) @ _MUL22
    x = x.transpose(0, 2, 1) @ kk  # six degree-4 x degree-2 products, summed
    det6 = _apply_map(np.ascontiguousarray(x.reshape(t, -1).T), _MUL42)  # batch-last
    divided = _apply_map(det6, _DIVIDE)
    quot = np.ascontiguousarray(divided[: len(_DEG4)].T)  # a view's norm sums in another order
    rem = np.abs(divided[len(_DEG4) :]).max(axis=0)
    scale = np.abs(det6).max(axis=0)
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
