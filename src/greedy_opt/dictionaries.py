"""Symmetric atom dictionaries and the greedy selection primitives.

A dictionary is a set of unit-norm atoms searched together with their
negatives.  Finite dictionaries store atoms as matrix columns; the unit
sphere is handled analytically through the duality map (``greedy_score``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ETA, EUCLIDEAN, U, NumericFailure, as_vector, dual_norm,
                   higham_gamma, lp_norm, norm2)

__all__ = [
    "ARGMAX",
    "FIRST_ABOVE",
    "Atom",
    "FiniteDictionary",
    "SphereDictionary",
    "greedy_score",
    "select_atom",
    "argmin_atom_by_objective",
    "read_csv_matrix",
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
        with np.errstate(over="ignore"):  # an overflowing norm is inf
            norms = np.array([lp_norm(A[:, j], norm)
                              for j in range(A.shape[1])])
        if np.any(norms == 0.0):
            raise ValueError("zero atom in dictionary")
        if not np.all(np.isfinite(norms)):  # its atom would scale to zero
            raise ValueError("atom norm overflows in dictionary")
        self._atoms = A / norms
        # Views with the strides of A[:, j], built once for the scan.
        self._columns = list(self._atoms.T)
        # Atoms exactly e_1, ..., e_dim in order, decided from the atoms, not
        # the kind label, and without building a dim x dim eye.
        n = A.shape[0]
        self.is_identity = (A.shape == (n, n)
                            and np.count_nonzero(self._atoms) == n
                            and bool(np.all(np.diagonal(self._atoms) == 1.0)))
        # Certificate of the screen in best_pairing: atom k's slack is
        # _slack_rel[k] * ||v||_2 + _slack_abs.  The 2-norms are not 1 for
        # p != 2; einsum forms them without a dim x count temporary.  Their
        # squares feed the objective scan's model (_lookahead_model).
        l2_sq = np.einsum("ij,ij->j", self._atoms, self._atoms)
        self._l2_sq, l2 = l2_sq, np.sqrt(l2_sq)
        self._l2_max = float(l2.max())
        self._slack_rel = 4.0 * higham_gamma(n) * l2
        self._slack_abs = 4.0 * n * ETA
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
        """Atoms from a CSV matrix, one per column (see ``read_csv_matrix``)."""
        return cls(read_csv_matrix(path), norm=norm, kind="csv")

    @property
    def dim(self):
        return self._atoms.shape[0]

    @property
    def size(self):
        return self._atoms.shape[1]

    def column(self, j):
        return self._columns[j]

    def _vector(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected a vector of dimension {self.dim}, "
                             f"got shape {v.shape}")
        return v

    def pairings(self, v):
        """Dot products of a finite vector v against every unsigned atom.

        This is the exact reference scan: the values equal
        ``np.dot(self.column(j), v)`` bit for bit, so a naive scan over the
        columns reproduces them.  For the identity, every term of column j's
        dot except v_j * 1 is a signed zero, so the dot is v_j + 0 as numpy
        accumulates it; ``v + 0.0`` gives the same, turning -0.0 into +0.0 as
        the dot does.  At dim 1 numpy's dot is the single product v_0 * 1,
        which keeps -0.0, and so does ``v * 1.0``.  Other dictionaries keep
        one strided ``ddot`` per cached column view: a matvec, a row-major
        copy or a contiguous column each round differently.  Selection does
        not call this scan: ``best_pairing`` screens the atoms with one matvec
        and a rounding certificate and re-scores only the survivors with the
        same ``ddot``, and it falls back to this scan when the certificate
        cannot be formed.  Non-finite v is outside the contract; a dot that
        overflows is an infinity, with no warning, which ``greedy_score``
        refuses.
        """
        v = self._vector(v)
        if self.is_identity:
            return v + 0.0 if v.size > 1 else v * 1.0
        with np.errstate(over="ignore"):
            return np.array([np.dot(col, v) for col in self._columns])

    def _screen(self, v):
        """|A^T v| from one matvec and each atom's certified slack, or None.

        None means the certificate cannot be formed: v is not finite, or
        max_k ||a_k||_2 ||v||_2 is too close to overflow (see best_pairing).
        """
        vnorm = norm2(v)  # NaN and inf propagate
        if not math.isfinite(2.0 * self._l2_max * vnorm):
            return None
        return (np.abs(self._atoms.T @ v),
                self._slack_rel * vnorm + self._slack_abs)

    def best_pairing(self, v):
        """Index j and exact pairing of the first atom maximizing |<a_j, v>|.

        ``(j, s_j)`` equals ``argmax(abs(pairings(v)))`` and its entry bit for
        bit, but on a general dictionary it costs one matvec plus a ``ddot``
        per surviving candidate instead of a ``ddot`` per atom.

        Certificate.  With n = dim, gamma_n and eta as in
        ``core.higham_gamma``, the matvec entry t_k and the exact strided dot
        s_k each lie within gamma_n |a_k|^T |v| + n eta of a_k^T v, and
        |a_k|^T |v| <= ||a_k||_2 ||v||_2 by Cauchy-Schwarz, so
        |t_k - s_k| <= delta_k = 2 gamma_n ||a_k||_2 ||v||_2 + 2 n eta.
        The slack used is 4 gamma_n ||a_k||_2 ||v||_2 + 4 n eta: doubling
        covers the O(n u) relative error of the computed norms, the slack
        itself and the cut below.  ||v||_2 comes from ``core.norm2``, so it
        neither overflows nor loses its tail to underflow.

        Screen.  If j* is the first maximizer of |s|, then for every k,
        |t_j*| >= |s_j*| - delta_j* >= |s_k| - delta_j* >= |t_k| - 2 max delta.
        So keeping every k with |t_k| >= max |t| - 2 max delta keeps j* and
        every atom tied with it; re-scoring the kept atoms with
        ``np.dot(column(k), v)`` in ascending index order and keeping the
        first maximum returns exactly (j*, s_j*).

        Fallback.  When v is not finite, or 2 max_k ||a_k||_2 ||v||_2
        overflows, this is the full scan ``pairings``.  Otherwise every
        partial sum of either evaluation is bounded by
        (1 + gamma_n) ||a_k||_2 ||v||_2, so neither the matvec nor a re-score
        can overflow and the screen above is sound.  Identity dictionaries
        always use ``pairings``, which costs O(dim) there.
        """
        if not self.is_identity:
            v = self._vector(v)
            screen = self._screen(v)
            if screen is not None:
                mags, slack = screen
                keep = np.flatnonzero(mags >= mags.max() - 2.0 * slack.max())
                pairs = [float(np.dot(self._columns[k], v)) for k in keep]
                i = int(np.argmax(np.abs(pairs)))
                return int(keep[i]), pairs[i]
        s = self.pairings(v)
        j = int(np.abs(s).argmax())  # the first NaN, if any
        return j, float(s[j])

    def _first_reaching(self, v, threshold):
        """Index and exact pairing of the first atom with |<a_j, v>| >= threshold.

        None when no atom reaches it.  An atom with |t_k| < threshold - delta_k
        cannot reach it (certificate as in ``best_pairing``), so only the
        others are re-scored, in ascending index order.
        """
        if not self.is_identity:
            v = self._vector(v)
            screen = self._screen(v)
            if screen is not None:
                mags, slack = screen
                for k in np.flatnonzero(mags >= threshold - slack):
                    pair = float(np.dot(self._columns[k], v))
                    if abs(pair) >= threshold:
                        return int(k), pair
                return None
        s = self.pairings(v)
        hits = np.flatnonzero(np.abs(s) >= threshold)
        return (int(hits[0]), float(s[hits[0]])) if hits.size else None

    def _lookahead_model(self, G, grad, c, curvature):
        """``(q, e)``: an array of models of E(G + c * (+-a_k)) - E(G) in the
        scan order (q[2k] for (k, +), q[2k + 1] for (k, -)) and their slack;
        None when a bound is not finite (see argmin_atom_by_objective)."""
        n = self.dim
        n_eta = n * ETA
        gam = higham_gamma(n + 4)
        half = 0.5 * curvature
        gnorm = norm2(grad)
        rho = (gnorm + n_eta) / curvature
        A = abs(c) * self._l2_max
        D = rho + A
        dx = gam * (A + A + norm2(G) + D) + n_eta
        B = D + dx
        f = (1.0 + abs(c)) * (1.0 + rho + self._l2_max)
        e = (half * ((D + B) * dx + gam * B * B)
             + gam * A * (gnorm + gnorm + n_eta + half * A)
             + 4.0 * n_eta * (1.0 + half) * f * f)
        if not math.isfinite(4.0 * ((half + 1.0) * B * B + A * gnorm + e)):
            return None
        quad = (half * c * c) * self._l2_sq
        lin = c * (grad if self.is_identity else self._atoms.T @ grad)
        q = np.empty(2 * self.size)
        q[0::2] = quad + lin
        q[1::2] = quad - lin
        return q, e

    def resolve(self, atom):
        """Signed atom vector."""
        return atom.sign * self._columns[atom.index]

    def describe(self):
        return {"kind": self.kind, "dim": self.dim, "count": self.size,
                "p": self.norm.p, "identity": self.is_identity}


class SphereDictionary:
    """The unit lp sphere as a dictionary; selection uses the duality map."""

    def __init__(self, norm=EUCLIDEAN):
        self.norm = norm

    def resolve(self, atom):
        return atom.sign * atom.vec

    def describe(self):
        return {"kind": "sphere", "p": self.norm.p}


def read_csv_matrix(path):
    """A comma-separated numeric matrix, at least 2-D.

    A first row that fails to parse as numbers is treated as a header.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    try:
        [float(tok) for tok in first.strip().split(",") if tok != ""]
        skip = 0
    except ValueError:
        skip = 1
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def greedy_score(grad_neg, dictionary):
    """Best pairing <grad_neg, g> over the symmetric dictionary.

    Returns ``(value, atom)``.  The value is always nonnegative by symmetry.
    A zero value returns ``(0.0, None)``, which the caller must treat as the
    stopping signal.

    Finite dictionaries use ``best_pairing``, which is bit-identical to a full
    scan, with ties broken by lowest unsigned index, then positive sign.  The
    sphere returns the dual norm d of grad_neg = v and the duality map, the
    unit-lp vector attaining Hoelder equality against v: v / d at p = 2, and
    sign(v) |v|^(p'-1) / d^(p'-1) otherwise.  A non-finite grad_neg raises
    ValueError; a score that overflows on a finite one raises NumericFailure.
    """
    sphere = isinstance(dictionary, SphereDictionary)
    if sphere:
        # ValueError if not finite; an overflowing score is inf
        with np.errstate(over="ignore"):
            best = dual_norm(grad_neg, dictionary.norm)
    else:
        j, pair = dictionary.best_pairing(grad_neg)
        best = abs(pair)
    if not math.isfinite(best):
        if np.isfinite(grad_neg).all():
            raise NumericFailure("greedy score is not finite")
        raise ValueError("greedy score is not finite")
    if best == 0.0:
        return 0.0, None
    if not sphere:
        return best, Atom(index=j, sign=1 if pair >= 0.0 else -1)
    norm, v = dictionary.norm, np.asarray(grad_neg, dtype=float)
    pd = norm.dual_p
    vec = (v / best if norm.is_euclidean
           else np.sign(v) * np.abs(v) ** (pd - 1.0) / best ** (pd - 1.0))
    return best, Atom(index=-1, sign=1, vec=vec)


def gradient_stop_threshold(dictionary, gtol):
    """A T such that a computed ``greedy_score`` value s > T proves
    ``dual_norm(g, dictionary.norm) > gtol`` for the scored gradient g; inf
    when no certificate is derived, so the caller computes the dual norm.

    The sphere's score is that dual norm bit for bit (|-g| = |g|): T = gtol.
    A finite dictionary with p = 2 and l = max_k fl(||a_k||_2) >= 1/2
    (normalized atoms have l near 1) gets T = l (gtol (1 + kappa u) + tau),
    kappa = 4n + 12, tau = 2 r, r = sqrt(n eta), with n = dim < 2^52 and u,
    eta and gamma_n as in ``core.higham_gamma``.  Suppose
    d = fl(sqrt(fl(<g, g>))) <= gtol.  Then fl(<g, g>) <= gtol^2 / (1 - u)^2
    and ||g||_2^2 <= (gtol^2 / (1 - u)^2 + n eta) / (1 - gamma_n); the squares
    behind l bound every exact ||a_k||_2^2 by (l^2 / (1 - u)^2 + n eta) /
    (1 - gamma_n) alike.  Cauchy-Schwarz and the dot's rounding give
    s <= (1 + gamma_n) ||a_j||_2 ||g||_2 + n eta, hence, with
    K = (1 + gamma_n) / (1 - gamma_n),
        s <= n eta + K (l / (1 - u) + r) (gtol / (1 - u) + r).
    As l >= 1/2 and r <= u / 4, r gtol <= u l gtol / 2, so this is at most
    l (K (1 + u) / (1 - u)^2 gtol + K r / (1 - u)) + (K + 1) r^2.  Forming T
    rounds three times and may drop eta / 2 in a product; as
    (1 + kappa u)(1 - u)^3 >= K (1 + u) / (1 - u)^2 and 2 r (1 - u)^3 covers
    the rest, the computed T is at least that bound, so s > T contradicts
    d <= gtol.  An inf or overflowing T only sends the caller to the dual
    norm.  Other p would need bounds on the powers in ``lp_norm``: inf.
    """
    if isinstance(dictionary, SphereDictionary):
        return gtol
    n, top = dictionary.dim, dictionary._l2_max
    if not (dictionary.norm.is_euclidean and top >= 0.5):
        return math.inf
    kappa = 4.0 * n + 12.0
    return top * (gtol * (1.0 + kappa * U) + 2.0 * math.sqrt(n * ETA))


def select_atom(grad_neg, dictionary, t=1.0, mode=ARGMAX, score=None):
    """Weak greedy selection: an atom whose pairing reaches t times the best score.

    ARGMAX returns the maximizer itself (satisfies every t).  FIRST_ABOVE
    computes the best score first, then returns the first signed atom in index
    order (positive sign first) whose exact pairing meets the threshold; this
    genuinely exercises t < 1.  Atoms the matvec screen proves below the
    threshold are skipped without a dot product.  ``score`` may carry a
    precomputed ``greedy_score`` result to avoid scoring twice.
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
    threshold = t * value
    hit = dictionary._first_reaching(grad_neg, threshold)
    if hit is None:
        raise AssertionError("unreachable: the maximizer meets every t <= 1")
    j, pair = hit
    sign = 1 if pair >= threshold else -1
    return Atom(index=j, sign=sign), sign * pair


def argmin_atom_by_objective(E, G, c, dictionary, grad=None):
    """Exact one-step lookahead: minimize E(G + c * (+-atom)) over all signed atoms.

    Finite dictionaries only; the infimum over the sphere continuum has no
    closed form for general E.  The scan evaluates E in index order, positive
    sign first, and keeps a value only when strictly lower, so ties resolve to
    the lowest unsigned index, positive sign first.  ``grad`` may carry E'(G).

    Screen.  An E with a ``curvature`` s is the quadratic (s/2)||x - t||^2,
    evaluated as ``0.5 * s * dot(x - t, x - t)`` with gradient ``s * (x - t)``.
    Let n = dim, u and eta as in ``core.higham_gamma``, gam = gamma_{n+4},
    w = fl(s/2), F(x) = w ||x - t||^2, r = G - t, g the computed gradient,
    alpha_k = ||a_k||_2 and A = |c| max alpha_k.  In the reals,
    F(G + c sigma a_k) - F(G) = c sigma 2w <r, a_k> + w c^2 alpha_k^2; its
    floating-point form q = fl(fl(w c c) fl(alpha_k^2) + sigma fl(c p_k)),
    with p_k = fl(<g, a_k>) from one matvec (g itself on the identity), is the
    model.  To first order in u:
    - rho = (||g|| + n eta) / s >= ||r||; D = rho + A >= ||r + c sigma a_k||.
    - Value: forming x = G + fl(c sigma a_k) and x - t moves r + c sigma a_k
      by at most dx = gam (2A + ||G|| + D) + n eta; the dot and the product
      add gam ||.||^2, so a value is within
      e_val = w ((2D + dx) dx + gam (D + dx)^2) of F(G + c sigma a_k).
    - Model: the matvec, g against s r and the products and sum of q put q
      within e_mod = gam (A (2 ||g|| + n eta) + w A^2) of the real difference.
    - Underflow, which Higham's bounds exclude: O(n) operations, each off by at
      most eta/2 times factors below (1 + w), (1 + |c|)^2 and
      (1 + rho + max alpha)^2; 4 n eta times their product covers them.
    With e = e_val + e_mod and (k*, s*) the first minimizer of the computed
    values v, q(k*, s*) <= v(k*, s*) - F(G) + e <= v(j, t) - F(G) + e <=
    q(j, t) + 2e for every (j, t).  So every signed atom with q <= min q + 2e
    is kept, (k*, s*) and its ties among them, and only those are evaluated,
    in the same order: atom and value are the full scan's, bit for bit.  q is
    formed elementwise by numpy, each operation rounding once as its scalar
    form would; a minimum that is either signed zero gives the same cut, as
    e > 0.  The cut uses 2e twice over, for the O(n u) relative error of the
    norms (``core.norm2``, no overflow or underflow), of e and of the cut.  The full
    scan runs without a curvature, at c = 0 (every value is E(G)), and when e
    or the largest intermediate, (w + 1)(D + dx)^2 + A ||g||, is not finite,
    so an overflowing value still raises.  The curvature comes from E's
    definition, not its declared majorant, which cannot change the atom.
    """
    if isinstance(dictionary, SphereDictionary):
        raise TypeError("objective-scan selection needs a finite dictionary; "
                        "the one-step infimum over the sphere has no closed form")
    G = as_vector(G, dictionary.dim)
    c = float(c)
    model = None
    if E.curvature is not None and c != 0.0:
        model = dictionary._lookahead_model(
            G, E.gradient(G) if grad is None else grad, c, E.curvature)
    if model is None:
        order = itertools.product(range(dictionary.size), (1, -1))
    else:
        q, e = model
        order = [(k >> 1, -1 if k & 1 else 1)
                 for k in np.flatnonzero(q <= q.min() + 4.0 * e).tolist()]
    best_val = math.inf
    best_atom = None
    for j, sign in order:
        val = E(G + (c * sign) * dictionary.column(j))
        if val < best_val:
            best_val = val
            best_atom = Atom(index=j, sign=sign)
    return best_atom, float(best_val)
