"""Symmetric atom dictionaries and the greedy selection primitives.

A dictionary is a set of unit-norm atoms searched together with their
negatives.  Finite dictionaries store atoms as matrix columns; the unit
sphere is handled analytically through the duality map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EUCLIDEAN, as_vector, dual_norm, lp_norm

__all__ = [
    "ARGMAX",
    "FIRST_ABOVE",
    "Atom",
    "FiniteDictionary",
    "SphereDictionary",
    "duality_map",
    "greedy_score",
    "select_atom",
    "argmin_atom_by_objective",
]

ARGMAX = "argmax"
FIRST_ABOVE = "first-above"


@dataclass(frozen=True)
class Atom:
    """A signed dictionary element.

    ``index`` addresses a column of a finite dictionary; sphere selections carry
    an explicit unit vector instead (index -1, sign folded into the vector).
    """

    index: int = -1
    sign: int = 1
    vec: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("atom sign must be +1 or -1")
        if self.index < 0 and self.vec is None:
            raise ValueError("explicit atoms need a vector")


class FiniteDictionary:
    """Finite symmetric dictionary of unit-norm atoms.

    Atoms are normalized at construction in the dictionary's lp norm; a zero
    atom is a construction error.  Both signs of every atom are searched, so
    only the unsigned atoms are stored.
    """

    def __init__(self, atoms, norm=EUCLIDEAN, kind="custom"):
        A = np.asarray(atoms, dtype=float)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError("atoms must form a nonempty (dim x count) matrix")
        if not np.all(np.isfinite(A)):
            raise ValueError("atoms must be finite")
        norms = np.array([lp_norm(A[:, j], norm) for j in range(A.shape[1])])
        if np.any(norms == 0.0):
            raise ValueError("zero atom in dictionary")
        self._atoms = A / norms
        # Views with the strides of A[:, j], built once for the scan.
        self._columns = list(self._atoms.T)
        # Atoms exactly e_1, ..., e_dim in order, decided from the atoms, not
        # the kind label, and without building a dim x dim eye.
        n = A.shape[0]
        self.is_identity = (A.shape == (n, n)
                            and np.count_nonzero(self._atoms) == n
                            and bool(np.all(np.diagonal(self._atoms) == 1.0)))
        self.norm = norm
        self.kind = kind

    @classmethod
    def coordinate(cls, dim, norm=EUCLIDEAN):
        """The coordinate dictionary {e_1, ..., e_dim}."""
        return cls(np.eye(int(dim)), norm=norm, kind="coordinate")

    @classmethod
    def gaussian(cls, dim, count, seed, norm=EUCLIDEAN):
        """``count`` normalized standard-normal atoms in R^dim."""
        rng = np.random.default_rng(seed)
        return cls(rng.standard_normal((int(dim), int(count))), norm=norm,
                   kind="gaussian")

    @classmethod
    def from_csv(cls, path, norm=EUCLIDEAN):
        """Load atoms from a CSV matrix, one atom per column.

        A first row that fails to parse as numbers is treated as a header.
        """
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
        try:
            [float(tok) for tok in first.strip().split(",") if tok != ""]
            skip = 0
        except ValueError:
            skip = 1
        A = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
        return cls(A, norm=norm, kind="csv")

    @property
    def dim(self):
        return self._atoms.shape[0]

    @property
    def size(self):
        return self._atoms.shape[1]

    def column(self, j):
        return self._columns[j]

    def pairings(self, v):
        """Dot products of a finite vector v against every unsigned atom.

        The values equal ``np.dot(self.column(j), v)`` bit for bit, so a naive
        scan over the columns reproduces them.  For the identity, every term of
        column j's dot except v_j * 1 is a signed zero, so the dot is v_j + 0
        in any summation order; ``v + 0.0`` gives the same, turning -0.0 into
        +0.0 as the dot does.  Other dictionaries keep one strided ``ddot``
        per cached column view: a matvec, a row-major copy or a contiguous
        column each round differently.  Non-finite v is outside the contract.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected a vector of dimension {self.dim}, "
                             f"got shape {v.shape}")
        if self.is_identity:
            return v + 0.0
        return np.array([np.dot(col, v) for col in self._columns])

    def resolve(self, atom):
        """Signed atom vector."""
        return atom.sign * self._columns[atom.index]

    def describe(self):
        return {"kind": self.kind, "dim": self.dim, "count": self.size,
                "p": self.norm.p}


class SphereDictionary:
    """The unit lp sphere as a dictionary; selection uses the duality map."""

    def __init__(self, norm=EUCLIDEAN):
        self.norm = norm
        self.kind = "sphere"

    @property
    def dim(self):
        return None

    def resolve(self, atom):
        return atom.sign * atom.vec

    def describe(self):
        return {"kind": "sphere", "p": self.norm.p}


def duality_map(v, norm=EUCLIDEAN):
    """The unique unit-lp vector achieving Hoelder equality against v."""
    v = np.asarray(v, dtype=float)
    dn = dual_norm(v, norm)
    if dn == 0.0:
        raise ValueError("duality map undefined at zero")
    if norm.is_euclidean:
        return v / dn
    pd = norm.dual_p
    return np.sign(v) * np.abs(v) ** (pd - 1.0) / dn ** (pd - 1.0)


def greedy_score(grad_neg, dictionary):
    """Best pairing <grad_neg, g> over the symmetric dictionary.

    Returns ``(value, atom)``.  The value is always nonnegative by symmetry.
    A zero value returns ``(0.0, None)``, which the caller must treat as the
    stopping signal.

    Finite dictionaries use an exact full scan with ties broken by lowest
    unsigned index, then positive sign; a non-finite score raises ValueError,
    as the sphere's dual norm does.  The sphere returns the dual norm of
    grad_neg and the duality-map direction.
    """
    if isinstance(dictionary, SphereDictionary):
        value = dual_norm(grad_neg, dictionary.norm)
        if value == 0.0:
            return 0.0, None
        return value, Atom(index=-1, sign=1,
                           vec=duality_map(grad_neg, dictionary.norm))
    s = dictionary.pairings(grad_neg)
    j = int(np.argmax(np.abs(s)))  # the first NaN, if any
    best = abs(float(s[j]))
    if not math.isfinite(best):
        raise ValueError("greedy score is not finite")
    if best == 0.0:
        return 0.0, None
    sign = 1 if s[j] >= 0.0 else -1
    return best, Atom(index=j, sign=sign)


def select_atom(grad_neg, dictionary, t=1.0, mode=ARGMAX, score=None):
    """Weak greedy selection: an atom whose pairing reaches t times the best score.

    ARGMAX returns the maximizer itself (satisfies every t).  FIRST_ABOVE
    computes the best score first, then scans signed atoms in index order
    (positive sign first) and returns the first one meeting the threshold;
    this genuinely exercises t < 1.  ``score`` may carry a precomputed
    ``greedy_score`` result to avoid a second scan.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError("weakness parameter t must lie in (0, 1]")
    value, atom = score if score is not None else greedy_score(grad_neg, dictionary)
    if atom is None:
        raise ValueError("zero greedy score: stopping should fire before selection")
    if mode == ARGMAX or isinstance(dictionary, SphereDictionary):
        return atom, value
    if mode != FIRST_ABOVE:
        raise ValueError(f"unknown selection mode {mode!r}")
    s = dictionary.pairings(grad_neg)
    threshold = t * value
    for j in range(dictionary.size):
        for sign in (1, -1):
            pair = sign * float(s[j])
            if pair >= threshold:
                return Atom(index=j, sign=sign), pair
    raise AssertionError("unreachable: the maximizer meets every t <= 1")


def argmin_atom_by_objective(E, G, c, dictionary):
    """Exact one-step lookahead: minimize E(G + c * (+-atom)) over all signed atoms.

    Finite dictionaries only; the infimum over the sphere continuum has no
    closed form for general E.  Ties resolve to the lowest unsigned index,
    positive sign first.
    """
    if isinstance(dictionary, SphereDictionary):
        raise TypeError("objective-scan selection needs a finite dictionary; "
                        "the one-step infimum over the sphere has no closed form")
    G = as_vector(G, dictionary.dim)
    c = float(c)
    best_val = math.inf
    best_atom = None
    for j in range(dictionary.size):
        col = dictionary.column(j)
        for sign in (1, -1):
            val = E(G + (c * sign) * col)
            if val < best_val:
                best_val = val
                best_atom = Atom(index=j, sign=sign)
    return best_atom, float(best_val)
