"""Dictionary construction and the three selection primitives."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greedy_opt import (
    ARGMAX,
    FIRST_ABOVE,
    FiniteDictionary,
    Majorant,
    NormTag,
    NumericFailure,
    Objective,
    SphereDictionary,
    argmin_atom_by_objective,
    dual_norm,
    greedy_score,
    lp_norm,
    quadratic_objective,
    select_atom,
    with_majorant,
)
from greedy_opt.dictionaries import gradient_stop_threshold


def naive_best_pairing(dictionary, v):
    """Transparent signed double loop with the same tie-breaking contract."""
    best, best_j, best_sign = -1.0, -1, 1
    for j in range(dictionary.size):
        pair = float(np.dot(dictionary.column(j), v))
        for sign in (1, -1):
            if sign * pair > best:
                best, best_j, best_sign = sign * pair, j, sign
    return best, best_j, best_sign


def naive_pairings(dictionary, v):
    """One np.dot per column, the reference the scan must match bit for bit;
    a dot that overflows is an infinity, as in the scan."""
    with np.errstate(over="ignore"):
        return np.array([np.dot(dictionary.column(j), v)
                         for j in range(dictionary.size)])


def naive_first_above(dictionary, v, threshold):
    """The signed index-order loop: first (j, sign) whose pairing reaches it."""
    for j in range(dictionary.size):
        pair = float(np.dot(dictionary.column(j), v))
        for sign in (1, -1):
            if sign * pair >= threshold:
                return j, sign, sign * pair
    return None


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()  # signbit of zeros included


def assert_score_matches_naive(dictionary, v):
    value, atom = greedy_score(v, dictionary)
    best, best_j, best_sign = naive_best_pairing(dictionary, v)
    if best == 0.0:
        assert value == 0.0 and atom is None
    else:
        assert value == best
        assert (atom.index, atom.sign) == (best_j, best_sign)


# zeros of both signs, subnormals and magnitudes near the top of the range
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308)


@st.composite
def coordinate_cases(draw):
    dim = draw(st.integers(1, 64))
    p = draw(st.sampled_from((1.5, 2.0, 3.0)))
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    entry = st.one_of(st.sampled_from(EDGE_FLOATS),
                      st.sampled_from((x, -x)),  # exact ties +-x
                      st.floats(allow_nan=False, allow_infinity=False))
    v = np.array(draw(st.lists(entry, min_size=dim, max_size=dim)))
    return FiniteDictionary.coordinate(dim, norm=NormTag(p)), v


TINY = np.finfo(float).smallest_subnormal


@st.composite
def screened_cases(draw):
    """A general dictionary with exact and near ties, and a vector to score.

    Duplicated and negated columns tie exactly; a column nudged by a few ulps
    nearly ties.  Dyadic entries make the products of a subnormal vector land
    on rounding ties, where a matvec and a strided dot round apart.  The
    vector's magnitude runs from subnormal to near overflow.
    """
    dim = draw(st.integers(1, 24))
    count = draw(st.integers(1, 10))
    p = draw(st.sampled_from((1.5, 2.0, 3.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = rng.standard_normal((dim, count))
    else:
        base = rng.choice((-1.0, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0),
                          size=(dim, count))
    j = draw(st.integers(0, count - 1))
    nudged = base[:, j].copy()
    i = draw(st.integers(0, dim - 1))
    for _ in range(draw(st.integers(1, 4))):
        nudged[i] = np.nextafter(nudged[i], np.inf)
    atoms = np.column_stack([base, base[:, j], -base[:, j], nudged])
    atoms = atoms[:, rng.permutation(atoms.shape[1])]
    kind = draw(st.sampled_from(("scaled", "subnormal", "zero")))
    if kind == "scaled":
        exponent = draw(st.one_of(st.integers(-323, -290), st.integers(-20, 20),
                                  st.integers(280, 308)))
        v = rng.uniform(-1.0, 1.0, dim) * 10.0**exponent
    elif kind == "subnormal":
        v = rng.integers(-2**20, 2**20, dim) * TINY
    else:
        v = np.where(rng.random(dim) < 0.5, -0.0, 0.0)
    return FiniteDictionary(atoms, norm=NormTag(p)), v


# a CSV dictionary rich in ties: duplicated, negated and ulp-nudged columns
_TIE_BASE = np.random.default_rng(23).standard_normal((3, 3))
_TIE_NUDGED = _TIE_BASE.copy()
_TIE_NUDGED[0] = np.nextafter(_TIE_NUDGED[0], np.inf)
TIE_CSV = np.hstack([_TIE_BASE, _TIE_BASE, -_TIE_BASE, _TIE_NUDGED])


@pytest.fixture(scope="module")
def tie_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("atoms") / "ties.csv"
    np.savetxt(path, TIE_CSV, delimiter=",", fmt="%.17g")
    return path


@st.composite
def lookahead_cases(draw, csv_path):
    """A quadratic, a dictionary, an iterate G and a step c for the scan.

    Coordinate, Gaussian and CSV dictionaries in three lp norms (so the atoms'
    2-norms differ for p != 2); the CSV one ties exactly and nearly.  The
    symmetric target (1, ..., 1)/2 makes +-e_j tie exactly from G = 0.  G,
    the target and c are of order 1, huge, near the underflow of their
    squares, or subnormal; c may be 0.
    """
    kind = draw(st.sampled_from(("coordinate", "gaussian", "csv")))
    norm = NormTag(draw(st.sampled_from((1.5, 2.0, 3.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "coordinate":
        d = FiniteDictionary.coordinate(draw(st.integers(1, 8)), norm=norm)
    elif kind == "gaussian":
        d = FiniteDictionary.gaussian(draw(st.integers(1, 6)),
                                      draw(st.integers(1, 8)),
                                      seed=draw(st.integers(0, 99)), norm=norm)
    else:
        d = FiniteDictionary.from_csv(csv_path, norm=norm)
    m = draw(st.sampled_from((1.0, 1e150, 1e-155, 1e-160, 1e-310)))
    if draw(st.booleans()):
        target = np.full(d.dim, 0.5 * m)
    else:
        target = rng.standard_normal(d.dim) * m
    G = draw(st.sampled_from((0.0, 0.5, 1.0))) * rng.standard_normal(d.dim) * m
    c = draw(st.sampled_from((0.0, 1e-3, 0.1, 0.5, 1.0, 3.0))) * m
    scale = draw(st.sampled_from((1.0, 0.3, 4.0)))
    return quadratic_objective(target, scale=scale), d, G, c


def naive_lookahead(E, G, c, dictionary):
    """The signed double loop over E(G + c * sign * a_j), strict <."""
    best, best_j, best_sign = math.inf, -1, 1
    for j in range(dictionary.size):
        for sign in (1, -1):
            value = E(G + (c * sign) * dictionary.column(j))
            if value < best:
                best, best_j, best_sign = value, j, sign
    return best, best_j, best_sign


def scalar_lookahead_model(d, grad, c, curvature):
    """The objective scan's model q in scalar Python arithmetic."""
    w = 0.5 * curvature * c * c
    p = (grad if d.is_identity else d._atoms.T @ grad).tolist()
    quad = [w * x for x in d._l2_sq.tolist()]
    lin = [c * x for x in p]
    return [v for a, b in zip(quad, lin) for v in (a + b, a - b)]


@st.composite
def stop_cases(draw, csv_path):
    """A dictionary, a gradient and a gradient tolerance for the stop test.

    Gradients run from subnormal to near overflow; some are one-hot in the
    range where their squares underflow (the score then exceeds the computed
    dual norm), some are an atom itself.  Tolerances are 0, the default
    1e-12 (1 + |E(0)|) for a drawn E(0), and the gradient's own dual norm,
    one ulp either side of it, and a few ulps off.
    """
    kind = draw(st.sampled_from(("coordinate", "gaussian", "csv", "sphere")))
    norm = NormTag(draw(st.sampled_from((1.5, 2.0, 3.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "coordinate":
        d = FiniteDictionary.coordinate(draw(st.integers(1, 8)), norm=norm)
    elif kind == "gaussian":
        d = FiniteDictionary.gaussian(draw(st.integers(1, 6)),
                                      draw(st.integers(1, 8)),
                                      seed=draw(st.integers(0, 99)), norm=norm)
    elif kind == "csv":
        d = FiniteDictionary.from_csv(csv_path, norm=norm)
    else:
        d = SphereDictionary(norm)
    dim = draw(st.integers(1, 8)) if kind == "sphere" else d.dim
    shape = draw(st.sampled_from(("scaled", "one-hot", "atom", "subnormal")))
    if shape == "scaled":
        exponent = draw(st.one_of(st.integers(-323, -150), st.integers(-20, 20),
                                  st.integers(150, 308)))
        g = rng.uniform(-1.0, 1.0, dim) * 10.0**exponent
    elif shape == "one-hot":
        g = np.zeros(dim)
        g[rng.integers(dim)] = rng.uniform(1e-163, 1e-160)
    elif shape == "atom" and kind != "sphere":
        g = d.column(rng.integers(d.size)) * draw(st.sampled_from(
            (1.0, -3.0, 1e-160, 1e150)))
    else:
        g = rng.integers(-2**20, 2**20, dim) * TINY
    with np.errstate(over="ignore"):
        dn = dual_norm(g, d.norm)
    gtol = draw(st.sampled_from(("zero", "default", "near")))
    if gtol == "zero":
        gtol = 0.0
    elif gtol == "default":
        gtol = 1e-12 * (1.0 + abs(draw(st.floats(-1e6, 1e6))))
    else:
        gtol = draw(st.sampled_from((
            dn, np.nextafter(dn, 0.0), np.nextafter(dn, np.inf),
            dn * (1.0 - 1e-15), dn * (1.0 + 1e-15))))
    return d, g, float(gtol)


class TestConstruction:
    def test_atoms_are_normalized(self):
        rng = np.random.default_rng(0)
        for p in (1.5, 2.0, 3.0):
            d = FiniteDictionary(rng.standard_normal((6, 10)) * 7.0,
                                 norm=NormTag(p))
            for j in range(d.size):
                np.testing.assert_allclose(lp_norm(d.column(j), d.norm), 1.0,
                                           rtol=1e-12)

    def test_zero_atom_rejected(self):
        atoms = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteDictionary(atoms)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_atom_whose_norm_overflows_rejected(self, p):
        """A finite atom whose lp norm overflows would scale to zero; off
        p = 2 the norm's sum overflows with no warning."""
        with pytest.raises(ValueError, match="atom norm overflows"):
            FiniteDictionary(np.full((3, 1), 1e300), norm=NormTag(p))

    def test_coordinate_and_gaussian(self):
        d = FiniteDictionary.coordinate(3)
        assert d.kind == "coordinate" and d.size == 3
        np.testing.assert_array_equal(d.column(1), [0.0, 1.0, 0.0])
        g1 = FiniteDictionary.gaussian(4, 9, seed=5)
        g2 = FiniteDictionary.gaussian(4, 9, seed=5)
        np.testing.assert_array_equal(g1._atoms, g2._atoms)

    def test_csv_loading_with_and_without_header(self, tmp_path):
        atoms = np.array([[3.0, 0.0], [4.0, 2.0]])
        bare = tmp_path / "atoms.csv"
        bare.write_text("3.0,0.0\n4.0,2.0\n")
        headed = tmp_path / "atoms_h.csv"
        headed.write_text("a1,a2\n3.0,0.0\n4.0,2.0\n")
        d1 = FiniteDictionary.from_csv(bare)
        d2 = FiniteDictionary.from_csv(headed)
        np.testing.assert_array_equal(d1._atoms, d2._atoms)
        np.testing.assert_allclose(d1.column(0), [0.6, 0.8], rtol=1e-15)


class TestPairings:
    @settings(max_examples=300, deadline=None)
    @given(coordinate_cases())
    def test_coordinate_scan_matches_column_loop_bitwise(self, case):
        d, v = case
        assert d.is_identity
        assert_same_bits(d.pairings(v), naive_pairings(d, v))
        assert_score_matches_naive(d, v)

    def test_negative_zero_pairs_as_positive_zero(self):
        s = FiniteDictionary.coordinate(3).pairings(np.array([-0.0, 1.0, 0.0]))
        assert not np.signbit(s[0])

    def test_negative_zero_keeps_its_sign_at_dim_1(self):
        # numpy's length-1 dot is the product itself: -0.0 * 1 = -0.0
        d = FiniteDictionary.coordinate(1)
        v = np.array([-0.0])
        assert_same_bits(d.pairings(v), naive_pairings(d, v))
        assert np.signbit(d.pairings(v)[0])

    def test_general_scan_matches_column_loop_bitwise(self):
        rng = np.random.default_rng(15)
        d = FiniteDictionary.gaussian(256, 300, seed=16)
        for _ in range(20):
            v = rng.standard_normal(256)
            assert_same_bits(d.pairings(v), naive_pairings(d, v))

    def test_signed_permutation_matches_column_loop(self):
        rng = np.random.default_rng(17)
        for dim in (2, 5, 64):
            atoms = np.eye(dim)[:, rng.permutation(dim)]
            atoms *= rng.choice((-1.0, 1.0), size=dim)
            if np.array_equal(atoms, np.eye(dim)):
                atoms[:, 0] *= -1.0
            d = FiniteDictionary(atoms)
            assert not d.is_identity
            for _ in range(20):
                v = rng.standard_normal(dim)
                v[::3] = -0.0
                assert_same_bits(d.pairings(v), naive_pairings(d, v))
                assert_score_matches_naive(d, v)

    def test_identity_detected_from_atoms_not_label(self):
        rng = np.random.default_rng(18)
        assert FiniteDictionary(np.eye(3)).is_identity
        assert FiniteDictionary(2.5 * np.eye(3), norm=NormTag(3.0)).is_identity
        assert not FiniteDictionary(rng.standard_normal((3, 3)),
                                    kind="coordinate").is_identity
        assert not FiniteDictionary(np.eye(3)[:, :2]).is_identity
        assert not FiniteDictionary(
            np.hstack([np.eye(2), np.ones((2, 1))])).is_identity
        assert not FiniteDictionary(np.eye(3) + np.eye(3, k=1)).is_identity
        # a unit diagonal alone is not enough: 1 + 1e-18 rounds to 1
        near = np.eye(3)
        near[1, 0] = 1e-9
        d = FiniteDictionary(near)
        assert d.column(0)[0] == 1.0 and not d.is_identity
        v = np.array([1.0, 1e9, 0.0])
        assert_same_bits(d.pairings(v), naive_pairings(d, v))

    def test_columns_are_strided_views_of_the_atoms(self):
        d = FiniteDictionary.gaussian(4, 9, seed=19)
        for j in range(d.size):
            assert d.column(j).strides == d._atoms[:, j].strides
            assert np.shares_memory(d.column(j), d._atoms)
            np.testing.assert_array_equal(d.column(j), d._atoms[:, j])

    @pytest.mark.parametrize("d", [FiniteDictionary.coordinate(3),
                                   FiniteDictionary.gaussian(3, 5, seed=20)],
                             ids=["coordinate", "gaussian"])
    def test_shape_mismatch_raises(self, d):
        for bad in (np.ones(4), np.ones(2), np.ones((3, 1)), np.float64(1.0)):
            with pytest.raises(ValueError):
                d.pairings(bad)


# a vector near overflow against two opposite constant atoms at p = 3: the
# screen cannot form its certificate, and the fallback scan's dots overflow
OVERFLOWING_SCAN = (
    FiniteDictionary(np.ones((10, 2)) * [1.0, -1.0], norm=NormTag(3.0)),
    np.array([7.43270548e307, 8.78828015e306, 8.04430159e307,
              -4.56929523e306, -1.39007445e307, 5.77893435e307,
              9.68306000e307, -2.60548415e307, 9.37865739e307,
              8.58052776e307]))


class TestScreenedScoring:
    @settings(max_examples=300, deadline=None)
    @given(screened_cases())
    @example(OVERFLOWING_SCAN)
    def test_screened_selection_matches_column_loop_bitwise(self, case):
        d, v = case
        s = naive_pairings(d, v)
        if not np.all(np.isfinite(s)):  # v is finite: a numeric failure
            with pytest.raises(NumericFailure):
                greedy_score(v, d)
            return
        j = int(np.argmax(np.abs(s)))
        best_j, pair = d.best_pairing(v)
        assert best_j == j
        assert_same_bits(np.float64(pair), s[j])
        assert_score_matches_naive(d, v)
        value, atom = greedy_score(v, d)
        if atom is None:
            return
        selected, pair = select_atom(v, d, t=0.3, mode=ARGMAX)
        assert (selected.index, selected.sign, pair) == (atom.index, atom.sign,
                                                         value)
        for t in (1.0, 0.999, 0.75, 0.5, 0.1, 1e-300):
            expected = naive_first_above(d, v, t * value)
            selected, pair = select_atom(v, d, t=t, mode=FIRST_ABOVE)
            assert (selected.index, selected.sign) == expected[:2]
            assert_same_bits(np.float64(pair), np.float64(expected[2]))

    @settings(max_examples=150, deadline=None)
    @given(screened_cases())
    def test_screen_slack_covers_the_exact_pairing(self, case):
        """Each of the matvec and the strided dot is within half the slack."""
        d, v = case
        screen = d._screen(v)
        if screen is None:
            assert not math.isfinite(2.0 * d._l2_max * math.hypot(*v))
            return
        mags, slack = screen
        for k in range(d.size):
            exact = sum(Fraction(a) * Fraction(x)
                        for a, x in zip(d.column(k), v))
            half = Fraction(slack[k]) / 2
            assert abs(Fraction(mags[k]) - abs(exact)) <= half
            assert abs(Fraction(float(np.dot(d.column(k), v))) - exact) <= half


class TestGreedyScore:
    def test_overflowing_scan_raises_numeric_failure(self):
        """The fallback scan's overflow is no warning: greedy_score sees an
        infinite score on a finite vector and raises NumericFailure."""
        d, v = OVERFLOWING_SCAN
        with pytest.raises(NumericFailure, match="greedy score is not finite"):
            greedy_score(v, d)

    def test_worked_example(self):
        value, atom = greedy_score(np.array([1.0, 2.0]),
                                   FiniteDictionary.coordinate(2))
        assert value == 2.0
        assert (atom.index, atom.sign) == (1, 1)

    def test_zero_gradient_sentinel(self):
        for d in (FiniteDictionary.coordinate(2), SphereDictionary()):
            value, atom = greedy_score(np.zeros(2), d)
            assert value == 0.0 and atom is None

    def test_orthogonal_gradient_sentinel(self):
        d = FiniteDictionary(np.array([[1.0], [0.0]]))
        value, atom = greedy_score(np.array([0.0, 3.0]), d)
        assert value == 0.0 and atom is None

    def test_negative_side_selected(self):
        value, atom = greedy_score(np.array([-5.0, 2.0]),
                                   FiniteDictionary.coordinate(2))
        assert value == 5.0
        assert (atom.index, atom.sign) == (0, -1)

    def test_tie_breaks_to_lowest_index(self):
        value, atom = greedy_score(np.array([2.0, -2.0]),
                                   FiniteDictionary.coordinate(2))
        assert value == 2.0
        assert (atom.index, atom.sign) == (0, 1)

    def test_exact_agreement_with_naive_double_loop(self):
        """Full-scan selection must match a transparent loop bit for bit."""
        rng = np.random.default_rng(1)
        d = FiniteDictionary.gaussian(16, 1000, seed=2)
        for _ in range(100):
            v = rng.standard_normal(16)
            value, atom = greedy_score(v, d)
            best, best_j, best_sign = naive_best_pairing(d, v)
            assert value == best
            assert (atom.index, atom.sign) == (best_j, best_sign)

    @pytest.mark.parametrize(
        "d", [FiniteDictionary.coordinate(3),
              FiniteDictionary.gaussian(3, 7, seed=22), SphereDictionary()],
        ids=["coordinate", "gaussian", "sphere"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_raises(self, d, bad):
        with pytest.raises(ValueError):
            greedy_score(np.array([bad, 1.0, 0.0]), d)
        with pytest.raises(ValueError):
            greedy_score(np.array([0.0, 1.0, bad]), d)

    def test_symmetry_under_negation(self):
        rng = np.random.default_rng(3)
        d = FiniteDictionary.gaussian(8, 50, seed=4)
        for _ in range(50):
            v = rng.standard_normal(8)
            assert greedy_score(v, d)[0] == greedy_score(-v, d)[0]

    def test_sphere_euclidean(self):
        value, atom = greedy_score(np.array([1.0, 2.0]), SphereDictionary())
        np.testing.assert_allclose(value, np.sqrt(5.0), rtol=1e-15)
        np.testing.assert_allclose(atom.vec, np.array([1.0, 2.0]) / np.sqrt(5.0),
                                   rtol=1e-15)

    def test_sphere_hoelder_equality_general_p(self):
        """The duality-map atom attains the dual norm and has unit norm."""
        rng = np.random.default_rng(5)
        for p in (1.3, 1.5, 2.0, 3.0, 5.0):
            sphere = SphereDictionary(NormTag(p))
            for _ in range(50):
                v = rng.standard_normal(6)
                value, atom = greedy_score(v, sphere)
                np.testing.assert_allclose(float(np.dot(v, atom.vec)),
                                           dual_norm(v, sphere.norm),
                                           rtol=1e-12)
                np.testing.assert_allclose(lp_norm(atom.vec, sphere.norm), 1.0,
                                           rtol=1e-12)

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 6.0])
    def test_sphere_atom_is_the_duality_map_bitwise(self, p):
        """The score is the dual norm, and the atom is v / ||v||_2 at p = 2
        and sign(v) |v|^(p'-1) / ||v||_{p'}^(p'-1) otherwise, with
        p' = p / (p - 1), bit for bit."""
        rng = np.random.default_rng(29)
        sphere = SphereDictionary(NormTag(p))
        for scale in (1.0, 1e-3, 1e3):
            for k in range(20):
                v = rng.standard_normal(7) * scale
                if k % 3 == 0:  # a zero of either sign
                    v[k % 7] = (0.0, -0.0)[k % 2]
                value, atom = greedy_score(v, sphere)
                if p == 2.0:
                    dn = math.sqrt(float(np.dot(v, v)))
                    expected = v / dn
                else:
                    pd = p / (p - 1.0)
                    dn = float(np.sum(np.abs(v) ** pd) ** (1.0 / pd))
                    expected = (np.sign(v) * np.abs(v) ** (pd - 1.0)
                                / dn ** (pd - 1.0))
                assert value == dn
                assert (atom.index, atom.sign) == (-1, 1)
                assert atom.vec.tobytes() == expected.tobytes()


class TestSelectAtom:
    def test_argmax_matches_score(self):
        d = FiniteDictionary.coordinate(2)
        atom, pair = select_atom(np.array([1.0, 2.0]), d, t=1.0, mode=ARGMAX)
        assert (atom.index, atom.sign, pair) == (1, 1, 2.0)

    def test_first_above_worked_example(self):
        # threshold 0.5 * 2.0 = 1.0; +e1 pairs at exactly 1.0 and comes first
        d = FiniteDictionary.coordinate(2)
        atom, pair = select_atom(np.array([1.0, 2.0]), d, t=0.5,
                                 mode=FIRST_ABOVE)
        assert (atom.index, atom.sign, pair) == (0, 1, 1.0)

    def test_first_above_at_t_one_equals_argmax(self):
        rng = np.random.default_rng(6)
        d = FiniteDictionary.gaussian(5, 40, seed=7)
        for _ in range(50):
            v = rng.standard_normal(5)
            a1, _ = select_atom(v, d, t=1.0, mode=ARGMAX)
            a2, _ = select_atom(v, d, t=1.0, mode=FIRST_ABOVE)
            assert (a1.index, a1.sign) == (a2.index, a2.sign)

    def test_first_above_meets_threshold(self):
        rng = np.random.default_rng(8)
        d = FiniteDictionary.gaussian(6, 30, seed=9)
        for t in (0.2, 0.5, 0.9):
            for _ in range(30):
                v = rng.standard_normal(6)
                value, _ = greedy_score(v, d)
                _, pair = select_atom(v, d, t=t, mode=FIRST_ABOVE)
                assert pair >= t * value

    def test_t_range_enforced(self):
        d = FiniteDictionary.coordinate(2)
        for t in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                select_atom(np.array([1.0, 0.0]), d, t=t)

    def test_zero_score_rejected(self):
        with pytest.raises(ValueError):
            select_atom(np.zeros(2), FiniteDictionary.coordinate(2))


class TestArgminAtom:
    def test_worked_example(self):
        # values over (+-e1, +-e2) are {2, 4, 1, 5}; +e2 wins with 1.0
        E = quadratic_objective([1.0, 2.0])
        atom, value = argmin_atom_by_objective(E, np.zeros(2), 1.0,
                                               FiniteDictionary.coordinate(2))
        assert (atom.index, atom.sign) == (1, 1)
        np.testing.assert_allclose(value, 1.0, rtol=1e-15)

    def test_zero_step_degenerate_tie(self):
        E = quadratic_objective([1.0, 2.0])
        atom, value = argmin_atom_by_objective(E, np.zeros(2), 0.0,
                                               FiniteDictionary.coordinate(2))
        assert (atom.index, atom.sign) == (0, 1)
        assert value == E(np.zeros(2))

    def test_linear_objective_matches_greedy_score(self):
        from greedy_opt.core import Majorant
        from greedy_opt.objectives import Objective
        rng = np.random.default_rng(10)
        d = FiniteDictionary.gaussian(4, 15, seed=11)
        for _ in range(25):
            a = rng.standard_normal(4)
            E = Objective(4, lambda x, a=a: float(np.dot(a, x)),
                          lambda x, a=a: a, Majorant.power(1.0, 2.0),
                          region_radius=10.0)
            atom_min, _ = argmin_atom_by_objective(E, np.zeros(4), 1.0, d)
            _, atom_score = greedy_score(-a, d)
            assert (atom_min.index, atom_min.sign) == (atom_score.index,
                                                       atom_score.sign)

    def test_agrees_with_independent_scan(self):
        rng = np.random.default_rng(12)
        d = FiniteDictionary.gaussian(5, 20, seed=13)
        E = quadratic_objective(rng.standard_normal(5))
        G = rng.standard_normal(5) * 0.3
        atom, value = argmin_atom_by_objective(E, G, 0.7, d)
        candidates = [(E(G + 0.7 * sign * d.column(j)), j, sign)
                      for j in range(d.size) for sign in (1, -1)]
        best = min(candidates, key=lambda c: c[0])
        assert value == best[0] and (atom.index, atom.sign) == (best[1], best[2])

    def test_rerun_is_identical(self):
        d = FiniteDictionary.gaussian(4, 12, seed=14)
        E = quadratic_objective(np.ones(4))
        first = argmin_atom_by_objective(E, np.zeros(4), 0.5, d)
        second = argmin_atom_by_objective(E, np.zeros(4), 0.5, d)
        assert first == second

    def test_sphere_unsupported(self):
        E = quadratic_objective([1.0, 2.0])
        with pytest.raises(TypeError):
            argmin_atom_by_objective(E, np.zeros(2), 1.0, SphereDictionary())

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_screened_scan_matches_double_loop_bitwise(self, tie_csv, data):
        E, d, G, c = data.draw(lookahead_cases(tie_csv))
        best, best_j, best_sign = naive_lookahead(E, G, c, d)
        # a declared majorant, even a wrong one, does not choose the atom
        wrong = with_majorant(E, Majorant.power(E.majorant.gamma / 2.0, 2.0))
        for objective in (E, wrong):
            atom, value = argmin_atom_by_objective(objective, G, c, d)
            assert (atom.index, atom.sign) == (best_j, best_sign)
            assert_same_bits(np.float64(value), np.float64(best))

    def test_symmetric_target_ties_resolve_to_the_first_atom(self):
        E = quadratic_objective([0.5, 0.5])
        d = FiniteDictionary.coordinate(2)
        # +e1 and +e2 tie at 0.125, -e1 and -e2 at 0.625; +e1 comes first
        atom, value = argmin_atom_by_objective(E, np.zeros(2), 0.5, d)
        assert (atom.index, atom.sign) == (0, 1) and value == 0.125
        # +e2 and +e3 tie below +-e1, whose values tie too
        E = quadratic_objective([0.0, 0.5, 0.5])
        atom, value = argmin_atom_by_objective(
            E, np.zeros(3), 0.5, FiniteDictionary.coordinate(3))
        assert (atom.index, atom.sign) == (1, 1) and value == 0.125

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_slack_covers_the_value_and_model_rounding(self, tie_csv, data):
        """|value - F(G + h)| + |model - (F(G + h) - F(G))| <= e, exactly."""
        E, d, G, c = data.draw(lookahead_cases(tie_csv))
        grad = E.gradient(G)
        model = d._lookahead_model(G, grad, c, E.curvature)
        if model is None:
            return
        q, e = model
        half = Fraction(0.5 * E.curvature)
        t = [Fraction(x) for x in E.minimizer]
        r = [Fraction(x) - ti for x, ti in zip(G, t)]
        base = half * sum(ri * ri for ri in r)
        for j in range(d.size):
            for k, sign in ((2 * j, 1), (2 * j + 1, -1)):
                h = [Fraction(c) * sign * Fraction(a) for a in d.column(j)]
                exact = half * sum((ri + hi) ** 2 for ri, hi in zip(r, h))
                value = Fraction(E(G + (c * sign) * d.column(j)))
                assert (abs(value - exact) + abs(Fraction(q[k]) - (exact - base))
                        <= Fraction(e))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_array_model_matches_the_scalar_form_bitwise(self, tie_csv, data):
        """q byte for byte, and the atoms the cut keeps, evaluated in order."""
        E, d, G, c = data.draw(lookahead_cases(tie_csv))
        grad = E.gradient(G)
        model = d._lookahead_model(G, grad, c, E.curvature)
        if model is None:
            return
        q, e = model
        scalar = scalar_lookahead_model(d, grad, c, E.curvature)
        assert_same_bits(q, np.array(scalar))
        cut = min(scalar) + 4.0 * e
        kept = [(k >> 1, -1 if k & 1 else 1)
                for k, v in enumerate(scalar) if v <= cut]
        if c == 0.0:
            return  # the scan runs in full, without the model
        calls = []
        counted = Objective(E.dim, lambda x: calls.append(x.tobytes())
                            or E._value(x), E._gradient, E.majorant,
                            E.region_radius, curvature=E.curvature)
        argmin_atom_by_objective(counted, G, c, d, grad)
        assert calls == [(G + (c * sign) * d.column(j)).tobytes()
                         for j, sign in kept]

    def test_screen_evaluates_one_atom_per_step_on_a_quadratic(self):
        from greedy_opt.greedy import StopRule, make_power_coefficients, run_ega
        from greedy_opt.instances import quadratic_geometric
        E = quadratic_geometric(64)
        calls = []
        counted = Objective(E.dim, lambda x: calls.append(1) or E._value(x),
                            E._gradient, E.majorant, E.region_radius,
                            known_inf=E.known_inf, curvature=E.curvature)
        d = FiniteDictionary.coordinate(64)
        coeffs = make_power_coefficients(1.0, 2.0, E.majorant.gamma)
        trace = run_ega(counted, d, coeffs, StopRule(max_iter=300))
        # one value at G_0 and one per step, the scan's, reused as E(G_m)
        assert len(trace) == 300 and len(calls) == 1 + 300
        assert trace.E == run_ega(E, d, coeffs, StopRule(max_iter=300)).E


class TestGradientStopThreshold:
    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_a_score_above_the_threshold_proves_the_dual_norm_above_gtol(
            self, tie_csv, data):
        d, g, gtol = data.draw(stop_cases(tie_csv))
        threshold = gradient_stop_threshold(d, gtol)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                score, _ = greedy_score(-g, d)
            except NumericFailure:  # an overflowing score raises first
                return
            dn = dual_norm(g, d.norm)
        if isinstance(d, SphereDictionary):
            assert threshold == gtol and score == dn
        elif not d.norm.is_euclidean:
            assert threshold == math.inf
        # the loop's stop test and the dual norm's decide alike
        assert (score <= threshold and dn <= gtol) == (dn <= gtol)

    @pytest.mark.parametrize("dim", [1, 2, 3, 64, 1000, 2**16])
    def test_kappa_and_tau_bound_the_score_exactly(self, dim):
        """T >= n eta + K sqrt((l^2/(1-u)^2 + n eta)(gtol^2/(1-u)^2 + n eta)),
        checked in rationals, with the bound on the atoms' norms behind it."""
        u, eta = Fraction(1, 2**53), Fraction(1, 2**1074)
        gam = dim * u / (1 - dim * u)
        K = (1 + gam) / (1 - gam)
        rng = np.random.default_rng(dim)
        dictionaries = [FiniteDictionary(np.ones((dim, 1)))]
        if dim <= 64:
            dictionaries += [FiniteDictionary.coordinate(dim),
                             FiniteDictionary.gaussian(dim, 7, seed=dim),
                             FiniteDictionary([[2.5e-162]] * dim)]
        for d in dictionaries:
            l = Fraction(d._l2_max)
            for k in range(d.size):
                exact = sum(Fraction(a) ** 2 for a in d.column(k))
                assert exact * (1 - gam) <= l**2 / (1 - u) ** 2 + dim * eta
            for gtol in (0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                         1e-200, 2.2e-162, 1e-12, 1.0, 1e12, 1e300,
                         float(rng.uniform(0.0, 1e-5)), 1.7e308):
                threshold = gradient_stop_threshold(d, gtol)
                if threshold == math.inf:
                    continue
                excess = Fraction(threshold) - dim * eta
                g = Fraction(gtol)
                assert excess >= 0 and excess**2 >= K**2 * (
                    (l**2 / (1 - u) ** 2 + dim * eta)
                    * (g**2 / (1 - u) ** 2 + dim * eta))

    def test_no_certificate_off_the_euclidean_norm_or_for_short_atoms(self):
        for p in (1.5, 3.0):
            d = FiniteDictionary.coordinate(3, norm=NormTag(p))
            assert gradient_stop_threshold(d, 1e-12) == math.inf
        sphere = SphereDictionary(NormTag(3.0))
        assert gradient_stop_threshold(sphere, 1e-12) == 1e-12
        d = FiniteDictionary.coordinate(3)
        d._l2_max = np.nextafter(0.5, 0.0)  # below the derivation's l >= 1/2
        assert gradient_stop_threshold(d, 1e-12) == math.inf
