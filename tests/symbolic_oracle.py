"""The symbolic test oracle: sparse polynomial arithmetic in the four
quaternion variables (w, x, y, z), the symbolic rotation R_POLY and the
6x6 polynomial matrix of a 3-point subset (build_triple_matrix).

The tests expand that matrix's determinant with the generic cofactor
expansion, divide out the quaternion norm factor w^2 + x^2 + y^2 + z^2
that the determinant always contains, and compare the quotient with the
closed-form rows of quest.coeffs. The library itself never imports this
module.

Polynomials are kept sparse as {exponent tuple: coefficient} maps with
float coefficients; the image coordinates feeding them are floats already,
so exact rational arithmetic would buy nothing downstream. Treat Poly4
values as immutable: every operation returns a new instance.
"""

from __future__ import annotations

import numpy as np

from quest.core import Correspondence, _rotation_entries


class Poly4:
    """Real polynomial in 4 variables, sparse exponent-tuple representation."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for exp, coeff in terms.items():
                c = float(coeff)
                if abs(c) > 0.0:
                    cleaned[tuple(int(e) for e in exp)] = c
        self.terms = cleaned

    @staticmethod
    def constant(c) -> "Poly4":
        return Poly4({(0, 0, 0, 0): c})

    @staticmethod
    def variable(i) -> "Poly4":
        exp = [0, 0, 0, 0]
        exp[i] = 1
        return Poly4({tuple(exp): 1.0})

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        names = "wxyz"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            mono = "".join(f"{names[i]}^{p}" if p > 1 else names[i] for i, p in enumerate(exp) if p)
            parts.append(f"{self.terms[exp]:+g}{'*' + mono if mono else ''}")
        return "Poly4(" + (" ".join(parts) if parts else "0") + ")"


ZERO = Poly4()
ONE = Poly4.constant(1.0)

#: w^2 + x^2 + y^2 + z^2, the factor divided out of every determinant.
NORM_POLY = Poly4(
    {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0}
)


def poly_add(p: Poly4, q: Poly4) -> Poly4:
    out = dict(p.terms)
    for exp, c in q.terms.items():
        s = out.get(exp, 0.0) + c
        if s == 0.0:
            out.pop(exp, None)
        else:
            out[exp] = s
    return Poly4(out)

def poly_sub(p: Poly4, q: Poly4) -> Poly4:
    return poly_add(p, poly_scale(q, -1.0))


def poly_scale(p: Poly4, s) -> Poly4:
    s = float(s)
    if s == 0.0:
        return ZERO
    return Poly4({exp: c * s for exp, c in p.terms.items()})


def poly_mul(p: Poly4, q: Poly4) -> Poly4:
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            s = out.get(exp, 0.0) + c1 * c2
            if s == 0.0:
                out.pop(exp, None)
            else:
                out[exp] = s
    return Poly4(out)


def _times(p: Poly4, s) -> Poly4:
    """p * s for a Poly4 or a number s."""
    return poly_mul(p, s) if isinstance(s, Poly4) else poly_scale(p, s)


# Operators, so formulas written for numbers (core._rotation_entries) also
# run on polynomials.
Poly4.__add__, Poly4.__sub__ = poly_add, poly_sub
Poly4.__mul__ = Poly4.__rmul__ = _times


def poly_eval(p: Poly4, v) -> float:
    w, x, y, z = (float(c) for c in v)
    total = 0.0
    for (a, b, c, d), coeff in p.terms.items():
        total += coeff * w**a * x**b * y**c * z**d
    return total


class PolyMatrix:
    """Rectangular grid of Poly4 entries."""

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged polynomial matrix")

    def __getitem__(self, idx):
        return self.entries[idx[0]][idx[1]]

    def eval_at(self, v) -> np.ndarray:
        """Numeric instantiation of every entry at the point v."""
        return np.array([[poly_eval(e, v) for e in row] for row in self.entries])


def poly_det(M: PolyMatrix) -> Poly4:
    """Exact determinant of a square polynomial matrix.

    Cofactor expansion row by row, memoized on the set of still-available
    columns. Every column subset is expanded at most once, which caps the
    work at n * 2^n sub-determinants; zero entries are skipped, so the
    block sparsity of the 3-point constraint matrices cuts the state count
    well below that bound.
    """
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    n = M.rows
    memo = {}

    def minor(row, colmask):
        if row == n:
            return ONE
        cached = memo.get(colmask)
        if cached is not None:
            return cached
        acc = ZERO
        sign = 1.0
        for col in range(n):
            bit = 1 << col
            if not (colmask & bit):
                continue
            entry = M.entries[row][col]
            if not entry.is_zero():
                sub = minor(row + 1, colmask & ~bit)
                if not sub.is_zero():
                    acc = poly_add(acc, poly_scale(poly_mul(entry, sub), sign))
            sign = -sign
        memo[colmask] = acc
        return acc

    return minor(0, (1 << n) - 1)


def _grlex_leading(p: Poly4):
    return max(p.terms, key=lambda e: (sum(e), e))


def poly_div_exact(p: Poly4, d: Poly4):
    """Multivariate long division of p by d in graded-lex order.

    Returns (quotient, remainder_norm) where remainder_norm is the largest
    remainder coefficient relative to the largest coefficient of p. When p
    is an exact multiple of d (as every 3-point determinant is a multiple
    of the norm polynomial), remainder_norm is at float-noise level.
    """
    if d.is_zero():
        raise ValueError("division by the zero polynomial")
    d_lead = _grlex_leading(d)
    d_lead_coeff = d.terms[d_lead]
    scale = p.max_coeff()
    if scale == 0.0:
        return ZERO, 0.0

    work = dict(p.terms)
    quotient = {}
    remainder_max = 0.0
    while work:
        lead = max(work, key=lambda e: (sum(e), e))
        coeff = work.pop(lead)
        if all(lead[i] >= d_lead[i] for i in range(4)):
            qe = tuple(lead[i] - d_lead[i] for i in range(4))
            qc = coeff / d_lead_coeff
            quotient[qe] = quotient.get(qe, 0.0) + qc
            for de, dc in d.terms.items():
                if de == d_lead:
                    continue
                exp = tuple(qe[i] + de[i] for i in range(4))
                s = work.get(exp, 0.0) - qc * dc
                if s == 0.0:
                    work.pop(exp, None)
                else:
                    work[exp] = s
        else:
            remainder_max = max(remainder_max, abs(coeff))
    return Poly4(quotient), remainder_max / scale


# Symbolic rotation matrix: the numeric formula core._rotation_entries run
# on the variables (w, x, y, z), so each entry is a homogeneous quadratic.
# For a unit quaternion it equals the rotation matrix; for a general
# quaternion it carries an extra factor w^2 + x^2 + y^2 + z^2.
_R_ENTRIES = _rotation_entries(*map(Poly4.variable, range(4)))
R_POLY = PolyMatrix([_R_ENTRIES[r:r + 3] for r in (0, 3, 6)])


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
