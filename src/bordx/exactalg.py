"""Exact integer algebra: partitions, graded polynomials, lattice linear algebra.

Everything here works over plain Python ints (arbitrary precision).  All
values are immutable after construction and all functions are pure, so the
module is safe to use from multiple threads.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import namedtuple

# GradedPoly.mul is the one polynomial kernel; reports name it by this constant.
KERNEL_BACKEND = "python"

Partition = tuple[int, ...]


def strict_int(x, what: str) -> int:
    """x itself if it is an int; bool, float, str and the rest are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _json_kind(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def _unique_keys(pairs) -> dict:
    """A JSON object's members as a dict, refusing a key written twice."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"the key {key!r} is given twice in one JSON object")
        seen.add(key)
    return dict(pairs)


def json_object(data, what: str) -> dict:
    """data as a JSON object: a string is parsed first, and anything but an
    object is refused.  Every malformed input, including a document nested
    too deeply to parse or an object with a key written twice, raises
    ValueError."""
    if isinstance(data, str):
        try:
            data = json.loads(data, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError(f"{what} is nested too deeply") from None
    return _json_kind(data, dict, what)


def json_field(obj: dict, key: str, kind: type, what: str, default=None, each=None):
    """obj[key] if it is a `kind` (dict, list or str), and for an array
    every item an `each` if given; a missing key gives `default`, and is
    refused when that is None."""
    if key not in obj:
        if default is None:
            raise ValueError(f'{what} needs the field "{key}"')
        return default
    value = _json_kind(obj[key], kind, f'"{key}" of {what}')
    for item in value if each else ():
        _json_kind(item, each, f'an item of "{key}" of {what}')
    return value


# ---------------------------------------------------------------------------
# partitions and multinomials
# ---------------------------------------------------------------------------

def partitions(n: int) -> list[Partition]:
    """All partitions of n, largest-first lex order.

    The iterative ZS1 generator (Zoghbi-Stojmenovic 1998): x[:m] is the
    current partition, its first h parts exceed 1 and every later entry of x
    is 1.  Each step lowers the last part above 1 by one and packs the units
    behind it into parts of that new size.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return [()]
    x = [n] + [1] * (n - 1)  # the first partition, (n)
    m, h = 1, int(n > 1)
    out: list[Partition] = [(n,)]
    while h:
        if x[h - 1] == 2:
            x[h - 1] = 1
            h -= 1
            m += 1
        else:
            part = x[h - 1] - 1
            units = m - h + 1
            x[h - 1] = part
            while units >= part:
                x[h] = part
                h += 1
                units -= part
            m = h + (units > 0)
            if units > 1:
                x[h] = units
                h += 1
        out.append(tuple(x[:m]))
    return out


def canonical_partition(parts) -> Partition:
    """Sort parts weakly decreasing; every part must be an int >= 1."""
    p = tuple(sorted([strict_int(x, "a partition part") for x in parts], reverse=True))
    if p and p[-1] < 1:  # the least part is the last
        raise ValueError(f"partition parts must be >= 1, got {parts}")
    return p


def multinomial(n: int, omega) -> int:
    """n! / (i_1! ... i_k!) for a partition omega of n."""
    omega = tuple(omega)
    if sum(omega) != n:
        raise ValueError(f"partition {omega} has weight {sum(omega)}, expected {n}")
    result = math.factorial(n)
    for part in omega:
        result //= math.factorial(part)
    return result


# ---------------------------------------------------------------------------
# extended gcd over lists
# ---------------------------------------------------------------------------

def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def ext_gcd_combo(values) -> tuple[int, list[int]]:
    """gcd of the values together with Bezout coefficients.

    Returns (g, coeffs) with g >= 0 and sum(coeffs[i] * values[i]) == g.
    Coefficients already found are kept untouched whenever the running gcd
    divides the next value.
    """
    values = list(values)
    if not values:
        raise ValueError("need at least one value")
    if all(v == 0 for v in values):
        raise ValueError("all values are zero")
    g = 0
    coeffs: list[int] = []
    for v in values:
        if g and v % g == 0:
            coeffs.append(0)
            continue
        g, x, y = ext_gcd(g, v)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
    return g, coeffs


# ---------------------------------------------------------------------------
# graded polynomials
# ---------------------------------------------------------------------------

def _accumulate(acc: dict, terms: dict, c: int) -> None:
    """acc += c * terms for sparse {key: nonzero coefficient} and c != 0, keeping no zero."""
    get = acc.get
    for e, k in terms.items():
        v = get(e, 0) + c * k
        if v:
            acc[e] = v
        else:
            del acc[e]


class GradedPoly:
    """Multivariate polynomial with integer coefficients and even generator degrees.

    Terms map exponent tuples to nonzero integers; the degree of a term is the
    dot product of its exponents with the generator degrees.  Instances are
    treated as immutable and all arithmetic returns new objects.
    """

    __slots__ = ("degrees", "terms")

    def __init__(self, degrees, terms=None):
        degrees = tuple(strict_int(d, "a generator degree") for d in degrees)
        for d in degrees:
            if d <= 0 or d % 2:
                raise ValueError(f"generator degrees must be positive even, got {d}")
        object.__setattr__(self, "degrees", degrees)
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exp, c in terms.items():
                if not strict_int(c, "a coefficient"):
                    continue
                exp = tuple(strict_int(e, "an exponent") for e in exp)
                if len(exp) != len(degrees):
                    raise ValueError(
                        f"exponent vector {exp} does not match {len(degrees)} generators"
                    )
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c += clean.get(exp, 0)
                if c:
                    clean[exp] = c
                else:
                    del clean[exp]
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, degrees, terms) -> "GradedPoly":
        """A polynomial on terms built inside bordx, taken as they are.

        The caller guarantees what `__init__` checks: `degrees` is a checked
        tuple, and `terms` maps exponent tuples of the right length to
        nonzero ints and is not shared with anything that mutates it.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "degrees", degrees)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("GradedPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, degrees) -> "GradedPoly":
        return cls(degrees)

    @classmethod
    def constant(cls, degrees, c: int) -> "GradedPoly":
        return cls(degrees, {(0,) * len(tuple(degrees)): c})

    @classmethod
    def monomial(cls, degrees, exp, c: int = 1) -> "GradedPoly":
        return cls(degrees, {tuple(exp): c})

    @classmethod
    def generator(cls, degrees, index: int, power: int = 1) -> "GradedPoly":
        exp = [0] * len(tuple(degrees))
        if not 0 <= strict_int(index, "a generator index") < len(exp):
            raise ValueError(f"generator index {index} outside 0..{len(exp) - 1}")
        exp[index] = power
        return cls(degrees, {tuple(exp): 1})

    # -- queries -------------------------------------------------------------

    def term_degree(self, exp) -> int:
        return sum(e * d for e, d in zip(exp, self.degrees))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Maximal term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.term_degree(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {self.term_degree(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "GradedPoly") -> None:
        if self.degrees != other.degrees:
            raise ValueError(
                f"incompatible generator degrees {self.degrees} vs {other.degrees}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = GradedPoly.constant(self.degrees, other)
        self._check_compatible(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms, 1)
        return GradedPoly._trusted(self.degrees, terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly._trusted(self.degrees, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = GradedPoly.constant(self.degrees, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: int) -> "GradedPoly":
        if not strict_int(c, "a scale factor"):
            return GradedPoly._trusted(self.degrees, {})
        return GradedPoly._trusted(self.degrees, {e: k * c for e, k in self.terms.items()})

    def mul(self, other: "GradedPoly", cap: int | None = None) -> "GradedPoly":
        """Product, without the terms of degree above `cap` when a cap is given.

        This is the hot loop of the whole workbench.  Exponents, degrees and
        the cap are arbitrary-precision ints; no cap (None or negative) means
        no degree limit.  The cap is applied once, as a final filter.
        """
        if cap is not None and strict_int(cap, "a degree cap") < 0:
            cap = None
        self._check_compatible(other)
        degrees = self.degrees
        add, mul = operator.add, operator.mul
        out = {}
        get = out.get
        b_terms = other.terms.items()
        for ea, ca in self.terms.items():
            for eb, cb in b_terms:
                key = tuple(map(add, ea, eb))
                c = get(key, 0) + ca * cb
                if c:
                    out[key] = c
                else:
                    del out[key]
        if cap is not None:
            out = {e: c for e, c in out.items() if sum(map(mul, e, degrees)) <= cap}
        return GradedPoly._trusted(degrees, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return self.mul(other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def pow(self, k: int, cap: int | None = None) -> "GradedPoly":
        """The k-th power, without the terms of degree above `cap` as in `mul`.

        By the binomial theorem over the base's term h of largest degree:
        P^k = sum_j C(k, j) h^(k-j) T^j with T = P - h.  For a monomial or a
        binomial, T is 0 or one term c t, and the power is its k + 1 terms
        C(k, j) lead^(k-j) c^j at (k-j) h + j t, all distinct, in one pass.
        Otherwise T^j is formed by repeated `mul` under the same cap
        (Fateman, "On the computation of powers of sparse polynomials",
        1974).  No term lies above k deg(h), so the cap is applied once, as
        a final filter, and only when it is below that.
        """
        if strict_int(k, "a power") < 0:
            raise ValueError("negative power")
        if cap is not None and strict_int(cap, "a degree cap") < 0:
            cap = None
        degrees = self.degrees
        if not k:
            return GradedPoly.constant(degrees, 1)
        mul, add = operator.mul, operator.add
        top, tail = -1, {}
        for e, c in self.terms.items():
            d = sum(map(mul, e, degrees))
            if d > top:
                if top >= 0:
                    tail[head] = lead
                head, lead, top = e, c, d
            else:
                tail[e] = c
        if top < 0:
            return GradedPoly._trusted(degrees, {})
        if cap is not None and k * top <= cap:
            cap = None
        if not tail:
            out = {tuple(e * k for e in head): lead ** k}
        elif len(tail) == 1:
            ((t, c),) = tail.items()
            out = {tuple(a * (k - j) + b * j for a, b in zip(head, t)):
                   math.comb(k, j) * lead ** (k - j) * c ** j for j in range(k + 1)}
        else:  # a term above the cap feeds only terms above it
            out = {tuple(e * k for e in head): lead ** k}
            get = out.get
            tail = GradedPoly._trusted(degrees, tail)
            powers = itertools.accumulate(
                itertools.repeat(tail, k - 1), lambda p, t: p.mul(t, cap), initial=tail)
            for j, power in enumerate(powers, 1):  # power = T^j
                if not power.terms:
                    break
                scale = math.comb(k, j) * lead ** (k - j)
                shift = tuple(e * (k - j) for e in head)
                for e, c in power.terms.items():
                    key = tuple(map(add, e, shift))
                    c = get(key, 0) + scale * c
                    if c:
                        out[key] = c
                    else:
                        del out[key]
        if cap is not None:
            out = {e: c for e, c in out.items() if sum(map(mul, e, degrees)) <= cap}
        return GradedPoly._trusted(degrees, out)

    def __pow__(self, k: int):
        return self.pow(k)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = GradedPoly.constant(self.degrees, other)
        return (
            isinstance(other, GradedPoly)
            and self.degrees == other.degrees
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degrees, frozenset(self.terms.items())))

    def __repr__(self):
        return f"GradedPoly(degrees={self.degrees}, terms={self.terms})"


# ---------------------------------------------------------------------------
# integer matrices and lattice linear algebra
# ---------------------------------------------------------------------------

class IntMatrix(namedtuple("IntMatrix", "rows cols entries")):
    """Rectangular matrix of arbitrary-precision integers: rows x cols,
    entries a tuple of row tuples."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows = [tuple(strict_int(x, "a matrix entry") for x in r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        return cls(len(rows), ncols, tuple(rows))


def hermite_form(rows) -> list[dict[int, int]]:
    """The reduced row Hermite form of the lattice of sparse rows {column:
    nonzero entry}, by unimodular row operations, the rows given unchanged
    (Kannan and Bachem, 1979; Cohen, *A Course in Computational Algebraic
    Number Theory*, 2.4): pivots are positive, each row's least key is its
    pivot, every entry above a pivot lies in [0, pivot), rows come in pivot
    order.  So the form is unique to the lattice and its length is the rank.

    Rows go in one at a time; a row that becomes a pivot is reduced by the
    later pivots, and a last pass, bottom-up, by the final ones.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            col = min(row)
            pivot = basis.get(col)
            if pivot is not None and row[col] % pivot[col] == 0:  # first: equal leads never swap
                row = _combine(row, 1, pivot, -(row[col] // pivot[col]))
                continue
            if pivot is None or pivot[col] % row[col] == 0:
                new, row = row, pivot  # the old pivot row, if any, goes on
            else:
                # [[x, y], [b/g, -a/g]] has determinant -1: the lattice is kept;
                # x, y != 0 as neither of a, b divides the other
                a, b = pivot[col], row[col]
                g, x, y = ext_gcd(a, b)
                new, row = _combine(pivot, x, row, y), _combine(pivot, b // g, row, -(a // g))
            if new[col] < 0:
                new = {j: -c for j, c in new.items()}
            basis[col] = _reduced(new, basis, col)
    for col in sorted(basis, reverse=True):
        basis[col] = _reduced(basis[col], basis, col)
    return [basis[col] for col in sorted(basis)]


def _reduced(row: dict, basis: dict, after: float) -> dict:
    """row with its entry at each pivot column of basis right of `after`
    reduced into [0, pivot), the pivots taken left to right: a pivot row is
    zero left of its pivot, so no later step changes an entry reduced."""
    for col in sorted(c for c in basis if c > after):
        if col in row:
            q = row[col] // basis[col][col]
            if q:
                row = _combine(row, 1, basis[col], -q)
    return row


def _combine(a: dict, s: int, b: dict, t: int) -> dict:
    """The sparse row s*a + t*b for nonzero s and t, without zero entries."""
    out = dict(a) if s == 1 else {j: s * c for j, c in a.items()}
    _accumulate(out, b, t)
    return out


def in_row_lattice(rows, target: dict) -> bool:
    """Whether the sparse row target lies in the integer span of the sparse rows.

    The target's entry at each pivot column of the rows' `hermite_form` is
    reduced into [0, pivot): it is a member exactly when nothing is left.
    """
    basis = {min(row): row for row in hermite_form(rows)}
    return not _reduced(target, basis, -math.inf)
