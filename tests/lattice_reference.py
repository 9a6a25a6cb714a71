"""The earlier lattice route, kept as the reference the tests compare against.

Fraction-free elimination gives the rank and a primitive kernel vector phi;
the quotient is torsion-free when the Hermite form of the relation rows
equals the Hermite form of a Z-basis of {x : phi . x = 0}.  The rows are
those of the full model, one column per monomial and one row per relation
multiple, built here without reading ``bordx``'s own model, over the
monomials ``monomials`` lists by its own recursion rather than by the
odometer of ``PresentedRing._monomial_walk``.  Nothing in
bordx uses this module; the Hermite form ``bordx.exactalg.hermite_form``
and the evaluator in ``bordx.cohomring``, over the standard monomials,
replace it, and ``reference_hnf`` is the oracle the Hermite form must equal
exactly.
"""

from __future__ import annotations

import math

from bordx.cohomring import PresentationError
from bordx.exactalg import IntMatrix, ext_gcd


def _normalize_row(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = math.gcd(g, x)
    if g > 1:
        return [x // g for x in row]
    return row


def _row_reduce(rows: list[list[int]], width: int) -> list[list[int]]:
    """Fraction-free elimination on the first `width` columns.

    Rows are combined with integer operations only; each row is divided by its
    content to control growth.  Returns the reduced rows (order: echelon rows
    first, fully-reduced-to-zero-in-window rows after).
    """
    rows = [list(r) for r in rows]
    pivots: list[tuple[int, list[int]]] = []  # (pivot col, row)
    done: list[list[int]] = []
    for row in rows:
        row = list(row)
        while True:
            lead = next((j for j in range(width) if row[j]), None)
            if lead is None:
                break
            hit = next((p for p in pivots if p[0] == lead), None)
            if hit is None:
                pivots.append((lead, _normalize_row(row)))
                row = None
                break
            _, prow = hit
            a, b = prow[lead], row[lead]
            g = math.gcd(a, b)
            ma, mb = b // g, a // g
            row = [mb * x - ma * y for x, y in zip(row, prow)]
            row = _normalize_row(row)
        if row is not None:
            done.append(row)
    pivots.sort(key=lambda p: p[0])
    return [p[1] for p in pivots] + done


def lattice_rank_kernel(M: IntMatrix) -> tuple[int, list[list[int]]]:
    """Rank over Q and an integer basis spanning the rational kernel of M.

    Kernel vectors are normalized to content 1 with positive leading entry;
    the output order is deterministic.
    """
    m, n = M.rows, M.cols
    # kernel of M = left kernel of M^T; reduce [M^T | I_n]
    aug = [
        [M.entries[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(n)]
        for j in range(n)
    ]
    reduced = _row_reduce(aug, m)
    kernel = []
    rank = 0
    for row in reduced:
        if any(row[:m]):
            rank += 1
        else:
            vec = _normalize_row(row[m:])
            lead = next((x for x in vec if x), 0)
            if lead < 0:
                vec = [-x for x in vec]
            kernel.append(vec)
    kernel.sort()
    return rank, kernel


def reference_hnf(M: IntMatrix) -> list[list[int]]:
    """Row-style Hermite normal form (nonzero rows only).

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    The result is the canonical basis of the row lattice of M.
    """
    rows = [list(r) for r in M.entries if any(r)]
    n = M.cols
    h: list[list[int]] = []
    col = 0
    while rows and col < n:
        live = [r for r in rows if r[col]]
        rest = [r for r in rows if not r[col]]
        if not live:
            col += 1
            continue
        # gcd-combine all rows with a nonzero entry in this column
        base = live[0]
        for r in live[1:]:
            g, x, y = ext_gcd(base[col], r[col])
            new_base = [x * a + y * b for a, b in zip(base, r)]
            q1, q2 = base[col] // g, r[col] // g
            leftover = [q2 * a - q1 * b for a, b in zip(base, r)]
            base, extra = new_base, leftover
            if any(extra):
                rest.append(extra)
        if base[col] < 0:
            base = [-x for x in base]
        # reduce previously fixed rows modulo the new pivot row
        for prev in h:
            if prev[col]:
                q = prev[col] // base[col]
                if q:
                    for j in range(n):
                        prev[j] -= q * base[j]
        h.append(base)
        rows = rest
        col += 1
    # re-sort by pivot column (insertion above may disturb nothing, but be safe)
    h.sort(key=lambda r: next(j for j in range(n) if r[j]))
    return h


def in_row_span(hnf_rows: list[list[int]], target) -> bool:
    """Whether target lies in the integer row span given by a Hermite basis."""
    v = [int(x) for x in target]
    n = len(v)
    for row in hnf_rows:
        lead = next(j for j in range(n) if row[j])
        if v[lead]:
            if v[lead] % row[lead]:
                return False
            q = v[lead] // row[lead]
            for j in range(n):
                v[j] -= q * row[j]
    return not any(v)


def saturation_kernel_basis(phi: list[int]) -> list[list[int]]:
    """Z-basis of the saturated lattice {x : phi . x = 0} for primitive phi."""
    m = len(phi)
    g = 0
    for x in phi:
        g = math.gcd(g, x)
    if g != 1:
        raise ValueError("phi must be primitive")
    # unimodular row operations turning phi (as a column) into e_1
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    psi = list(phi)
    piv = next(i for i in range(m) if psi[i])
    if piv != 0:
        psi[0], psi[piv] = psi[piv], psi[0]
        u[0], u[piv] = u[piv], u[0]
    for i in range(1, m):
        while psi[i]:
            if abs(psi[0]) > abs(psi[i]) or psi[0] == 0:
                psi[0], psi[i] = psi[i], psi[0]
                u[0], u[i] = u[i], u[0]
                continue
            q = psi[i] // psi[0]
            psi[i] -= q * psi[0]
            u[i] = [a - q * b for a, b in zip(u[i], u[0])]
    if psi[0] < 0:
        u[0] = [-x for x in u[0]]
        psi[0] = -psi[0]
    # now psi = g*e_1 with g = 1; kernel of phi is spanned by rows 2..m of u
    return [list(u[i]) for i in range(1, m)]


def bareiss_abs_det(rows) -> int:
    """|det| of a square integer matrix by fraction-free Bareiss elimination:
    every division is exact, and a zero pivot is swapped for a row below."""
    a = [list(r) for r in rows]
    n, prev = len(a), 1
    for k in range(n - 1):
        swap = next((i for i in range(k, n) if a[i][k]), None)
        if swap is None:
            return 0
        a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return abs(a[-1][-1]) if n else 1


def dense_matrix(rows, cols: int) -> IntMatrix:
    """The IntMatrix of sparse {column: entry} rows, of width cols."""
    return IntMatrix.from_rows([[row.get(j, 0) for j in range(cols)] for row in rows],
                               cols=cols)


def monomials(degrees, degree) -> list[tuple[int, ...]]:
    """The exponent vectors of the monomials of `degree` over generators of
    the given degrees, in lexicographic order: a recursion over the exponent
    of each generator in turn, independent of bordx's odometer."""
    if not degrees:
        return [()] if degree == 0 else []
    first, *rest = degrees
    return [(e, *m) for e in range(degree // first + 1)
            for m in monomials(rest, degree - e * first)]


def full_lattice_model(ring, degree):
    """(column by monomial code, relation rows) of a degree with nothing eliminated.

    Every monomial of the degree is a column, the fundamental monomial's last
    at the top, and every relation multiple r * m is a row, unit monomial
    relations included: the model before bordx dropped the columns and rows
    those relations account for.
    """
    encode = ring.encode
    codes = [encode(m) for m in monomials(ring.degrees, degree)]
    if degree == ring.top_degree:
        mu = encode(ring.fundamental_monomial)
        codes.remove(mu)
        codes.append(mu)
    index = {code: i for i, code in enumerate(codes)}
    rows = []
    for rel in ring.relations:
        shift = degree - rel.degree()
        if shift >= 0:
            terms = [(encode(e), c) for e, c in rel.terms.items()]
            for m in monomials(ring.degrees, shift):
                k = encode(m)
                rows.append({index[e + k]: c for e, c in terms})
    return index, rows


def reference_evaluator(ring):
    """(monomial index, phi) of the top degree by the earlier route, or its error."""
    index, rows = full_lattice_model(ring, ring.top_degree)
    m = len(index)
    matrix = dense_matrix(rows, m)
    rank, kernel = lattice_rank_kernel(matrix)
    if len(kernel) != 1:
        raise PresentationError(
            f"top-degree quotient has rank {len(kernel)}, expected 1 "
            "(bad presentation)"
        )
    phi = kernel[0]
    h_rel = reference_hnf(matrix)
    h_sat = reference_hnf(IntMatrix.from_rows(saturation_kernel_basis(phi), cols=m))
    if h_rel != h_sat:
        raise PresentationError("top-degree quotient has torsion (bad presentation)")
    val = phi[index[ring.encode(ring.fundamental_monomial)]]
    if abs(val) != 1:
        raise PresentationError(
            "fundamental monomial does not generate the top-degree quotient"
        )
    if val < 0:
        phi = [-x for x in phi]
    return index, phi
