"""The matrix of a linear operation on Chern vectors, read through the operation itself."""

from bordx.bordclass import ChernVector
from bordx.exactalg import partitions


def operation_matrix(op, n):
    """The matrix of `op` on classes of dimension n, in the form of
    `bordclass._projective_dual`: (the dimension m of the target, one row per
    partition of m in basis order, each the pair (indices, coefficients) of
    its nonzero entries).  Column j is op applied to the basis class of the
    j-th partition of n."""
    images = [op(ChernVector(n, {tau: 1})) for tau in partitions(n)]
    rows = []
    for row in zip(*(image.values for image in images)):
        idx = tuple(j for j, c in enumerate(row) if c)
        rows.append((idx, tuple(row[j] for j in idx)))
    return images[0].dim, tuple(rows)
