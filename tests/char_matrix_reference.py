"""The hand-typed characteristic matrices, kept as the reference the tests compare against.

`char_matrix` is the `tower.char_matrix` of bordx before it read every matrix
off the family's `TowerSpec`: one branch per family, with the signs of the
Ltilde and Ntilde columns typed in.  Its CPprod and L matrices equal the
derived ones row for row; its Ltilde and Ntilde matrices negate other columns
of the same facet class than `build_family` conjugates, and give the same
toric Chern numbers.  Nothing in bordx uses this module;
``bordx.tower.char_matrix`` replaces it.
"""

from __future__ import annotations

from bordx import bordclass
from bordx.exactalg import IntMatrix, canonical_partition
from bordx.tower import CharMatrix, _check_parities


def char_matrix(name: str, *params) -> CharMatrix:
    """The characteristic matrix of a named family, refused above CHERN_MAX_DIM first."""
    if name == "CPprod":
        (omega,) = params
        omega = canonical_partition(omega) if omega else ()
        n = sum(omega)
        bordclass.check_dim(n)
        m = n + len(omega)
        rows = [[0] * m for _ in range(n)]
        r0 = c0 = 0
        for d in omega:
            for j in range(d):
                rows[r0 + j][c0 + j] = 1
                rows[r0 + j][c0 + d] = -1
            r0 += d
            c0 += d + 1
        return CharMatrix(IntMatrix.from_rows(rows, cols=m), tuple(omega))

    if name == "L":
        n1, n2 = params
        if n1 <= 0 or n2 <= 0:
            raise ValueError("char_matrix('L') needs n1, n2 > 0")
        n = n1 + n2
        bordclass.check_dim(n)
        m = n + 2
        rows = [[0] * m for _ in range(n)]
        for j in range(n1):
            rows[j][j] = 1
            rows[j][n1] = -1
        rows[n1][n1] = 1  # the single eta weight
        for j in range(n2):
            rows[n1 + j][n1 + 1 + j] = 1
            rows[n1 + j][m - 1] = -1
        return CharMatrix(IntMatrix.from_rows(rows, cols=m), (n1, n2))

    if name == "Ltilde":
        n1, n2 = params
        _check_parities("Ltilde", n1, n2)
        n = n1 + n2
        bordclass.check_dim(n)
        m = n + 2
        rows = [[0] * m for _ in range(n)]
        for j in range(n1):
            rows[j][j] = 1
            rows[j][n1] = 1 if j % 2 == 0 else -1
        rows[n1][n1] = 1
        for j in range(n2):
            rows[n1 + j][n1 + 1 + j] = 1
            rows[n1 + j][m - 1] = 1 if j % 2 == 0 else -1
        return CharMatrix(IntMatrix.from_rows(rows, cols=m), (n1, n2))

    if name == "Ntilde":
        n1, n2 = params
        _check_parities("Ntilde", n1, n2)
        n = 1 + n1 + n2
        bordclass.check_dim(n)
        m = n + 3
        rows = [[0] * m for _ in range(n)]
        if n2 == 1:
            # facet classes t1 = t2 = u, a_j alternating, b = (w-2u, -(w+v))
            rows[0][0] = 1
            rows[0][1] = -1
            for j in range(n1):
                rows[1 + j][2 + j] = 1
                rows[1 + j][2 + n1] = 1 if j % 2 == 0 else -1
            rows[n - 1][1] = 2
            rows[n - 1][2 + n1] = 1
            rows[n - 1][m - 2] = 1
            rows[n - 1][m - 1] = 1
            return CharMatrix(IntMatrix.from_rows(rows, cols=m), (1, n1, n2))
        rows[0][0] = 1
        rows[0][1] = 1
        for j in range(n1):
            rows[1 + j][2 + j] = 1
            rows[1 + j][2 + n1] = 1 if j % 2 == 0 else -1
        w0 = 2 + n1 + 1  # first fiber column
        last = m - 1
        for j in range(n2):
            rows[1 + n1 + j][w0 + j] = 1
            rows[1 + n1 + j][last] = 1 if j % 2 == 0 else -1
        rows[1 + n1][1] = -1      # b_1 row: -t2
        rows[1 + n1 + 1][1] = 1   # b_2 row: +t2
        rows[1 + n1 + 2][2 + n1] = 1  # b_3 row: +a_{n1+1}
        return CharMatrix(IntMatrix.from_rows(rows, cols=m), (1, n1, n2))

    raise ValueError(f"unknown family {name!r}")
