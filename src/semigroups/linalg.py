"""Exact integer/rational linear algebra over small matrices.

Everything here works with Python ints and fractions.Fraction, so results are
exact for arbitrarily large entries.  Vectors are tuples (or lists) of ints.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


class Lattice:
    """Integer row lattice (subgroup of Z^n) kept in row-echelon form."""

    def __init__(self, vectors=()):
        self.n = None
        self.basis = {}  # pivot column -> row (list of ints), zeros left of pivot
        for v in vectors:
            self.add(v)

    def add(self, vec):
        v = list(vec)
        if self.n is None:
            self.n = len(v)
        elif len(v) != self.n:
            raise ValueError("dimension mismatch")
        for j in range(self.n):
            if v[j] == 0:
                continue
            if j not in self.basis:
                if v[j] < 0:
                    v = [-x for x in v]
                self.basis[j] = v
                return
            row = self.basis[j]
            g = gcd(row[j], v[j])
            # Bezout combination gives a row with entry g at column j.
            a, b = _bezout(row[j], v[j])
            new_row = [a * x + b * y for x, y in zip(row, v)]
            v = [(row[j] // g) * y - (v[j] // g) * x for x, y in zip(row, v)]
            self.basis[j] = new_row
        # v reduced to zero: nothing to add

    @property
    def rank(self):
        return len(self.basis)

    def __contains__(self, vec):
        if self.n is None:
            return not any(vec)
        v = list(vec)
        for j in range(self.n):
            if v[j] == 0:
                continue
            if j not in self.basis:
                return False
            row = self.basis[j]
            if v[j] % row[j]:
                return False
            q = v[j] // row[j]
            v = [x - q * y for x, y in zip(v, row)]
        return True

    def multiple_in_lattice(self, vec):
        """Smallest c >= 1 with c*vec in the lattice, or None if no such c.

        Exists iff vec lies in the rational span of the lattice; then the
        answer is the lcm of the denominators of the rational coordinates.
        """
        v = [Fraction(x) for x in vec]
        denom = 1
        for j in sorted(self.basis):
            if v[j] == 0:
                continue
            row = self.basis[j]
            q = v[j] / row[j]
            denom = lcm(denom, q.denominator)
            v = [x - q * y for x, y in zip(v, row)]
        if any(v):
            return None
        return denom


def _bezout(a, b):
    """Return (x, y) with x*a + y*b == gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a - (a // b) * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0


def group_rank(vectors):
    """Rank of the subgroup of Z^n generated by the vectors."""
    return Lattice(vectors).rank


def rational_solve(vec, basis_vectors):
    """Solve vec = sum q_i * b_i over Q for linearly independent b_i.

    Returns a tuple of Fractions, or None if vec is outside the span.
    Raises ValueError if the given vectors are dependent.
    """
    rows = [list(b) for b in basis_vectors]
    k = len(rows)
    if k == 0:
        return () if not any(vec) else None
    n = len(rows[0])
    # Transposed system: columns are the basis vectors, augmented with vec.
    aug = [[Fraction(rows[i][c]) for i in range(k)] + [Fraction(vec[c])]
           for c in range(n)]
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, n) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("basis vectors are linearly dependent")
        aug[r], aug[piv] = aug[piv], aug[r]
        pr = aug[r]
        for i in range(n):
            if i != r and aug[i][col] != 0:
                f = aug[i][col] / pr[col]
                aug[i] = [x - f * y for x, y in zip(aug[i], pr)]
        pivots.append(col)
        r += 1
    # Consistency: rows beyond the pivots must have zero rhs.
    for i in range(r, n):
        if aug[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        sol[col] = aug[i][k] / aug[i][col]
    return tuple(sol)


def in_rational_cone(vec, rays):
    """Whether vec is a nonnegative rational combination of independent rays."""
    sol = rational_solve(vec, rays)
    return sol is not None and all(q >= 0 for q in sol)


def in_cone(vec, generators):
    """Whether vec is a nonnegative rational combination of the generators.

    The generators may be linearly dependent; by Caratheodory it suffices to
    test independent subsets.
    """
    gens = [tuple(g) for g in generators]
    if not any(vec):
        return True
    r = group_rank(gens)
    for size in range(1, r + 1):
        for sub in combinations(gens, size):
            if group_rank(sub) != size:
                continue
            sol = rational_solve(vec, sub)
            if sol is not None and all(q >= 0 for q in sol):
                return True
    return False

