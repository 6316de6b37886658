"""Value types, distance primitives and the assignment solver."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_assignment  # the oracle

from attmot.core import (
    AttributeVector,
    BBox,
    Detection,
    GtEntry,
    attribute_distance,
    cosine_distance,
    box_rows,
    iou,
    linear_sum_assignment,
    occlusion_fraction,
    pairwise_iou,
    validate_binary_attributes,
)


def boxes(draw):
    left = draw(st.floats(-500, 500))
    top = draw(st.floats(-500, 500))
    w = draw(st.floats(0.5, 400))
    h = draw(st.floats(0.5, 400))
    return BBox(left, top, w, h)


box_strategy = st.composite(boxes)()


class TestBBox:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            BBox(0, 0, -5, 10)
        with pytest.raises(ValueError):
            BBox(0, 0, 10, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BBox(float("nan"), 0, 10, 10)

    def test_accessors(self):
        b = BBox(100, 100, 50, 100)
        assert (b.cx, b.cy) == (125, 150)
        assert (b.right, b.bottom) == (150, 200)
        assert b.area == 5000


class TestIou:
    def test_identical(self):
        b = BBox(3, 4, 10, 20)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(100, 100, 5, 5)) == 0.0

    def test_hand_case(self):
        # overlap 5x10 = 50, union 200 - 50 = 150
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(1 / 3, abs=1e-12)

    @given(box_strategy, box_strategy)
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(iou(b, a), abs=1e-12)


class TestPairwiseIou:
    @given(st.lists(box_strategy, max_size=6), st.lists(box_strategy, max_size=6))
    @settings(max_examples=200)
    @example([BBox(0, 0, 10, 10)], [BBox(10, 0, 10, 10), BBox(0, 10, 10, 10),
                                    BBox(2, 2, 4, 4), BBox(50, 50, 5, 5), BBox(0, 0, 10, 10)])
    @example([BBox(0.1, 0.1, 0.2, 0.2)], [BBox(0.1, 0.1, 0.2, 0.2)])  # ratio rounds past 1
    def test_equals_iou_loop(self, a, b):
        expected = np.array([[iou(x, y) for y in b] for x in a]).reshape(len(a), len(b))
        np.testing.assert_array_equal(pairwise_iou(box_rows(a), box_rows(b)), expected)


def _assignment(solve, cost):
    """``(rows, cols)`` of a solver as lists, or the type of its error."""
    try:
        rows, cols = solve(cost)
    except ValueError as exc:
        return type(exc)
    return rows.tolist(), cols.tolist()


# Small integer costs tie often; +inf forbids a pair and can leave no
# feasible assignment.
_cost_cell = st.integers(-3, 4).map(lambda k: math.inf if k == 4 else float(k))


@st.composite
def _cost_matrices(draw):
    n_r, n_c = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    cells = draw(st.lists(_cost_cell, min_size=n_r * n_c, max_size=n_r * n_c))
    return np.array(cells, dtype=np.float64).reshape(n_r, n_c)


class TestLinearSumAssignment:
    @given(_cost_matrices())
    @settings(max_examples=500)
    def test_equals_scipy(self, cost):
        assert _assignment(linear_sum_assignment, cost) == _assignment(scipy_assignment, cost)

    @given(_cost_matrices(), st.integers(0, 63), st.sampled_from([math.nan, -math.inf]))
    @settings(max_examples=200)
    def test_invalid_entries_fail_like_scipy(self, cost, at, value):
        if cost.size:
            cost.flat[at % cost.size] = value
        assert _assignment(linear_sum_assignment, cost) == _assignment(scipy_assignment, cost)

    @pytest.mark.parametrize("seed", range(4))
    def test_large_tied_matrices_equal_scipy(self, seed):
        rng = np.random.default_rng(seed)
        for shape in ((40, 60), (60, 40)):
            cost = rng.integers(0, 5, shape).astype(np.float64)
            cost[rng.random(shape) < 0.2] = math.inf
            assert _assignment(linear_sum_assignment, cost) == _assignment(scipy_assignment, cost)

    def test_output_types(self):
        rows, cols = linear_sum_assignment(np.array([[3, 1], [2, 9], [0, 0]]))
        assert rows.dtype == cols.dtype == np.int64
        assert (rows.tolist(), cols.tolist()) == ([0, 2], [1, 0])
        with pytest.raises(ValueError, match="2-D"):
            linear_sum_assignment(np.zeros(3))


class TestOcclusionFraction:
    def test_full_cover(self):
        assert occlusion_fraction(BBox(2, 2, 5, 5), BBox(0, 0, 20, 20)) == 1.0

    def test_disjoint(self):
        assert occlusion_fraction(BBox(0, 0, 10, 10), BBox(50, 50, 5, 5)) == 0.0

    def test_half_overlap(self):
        assert occlusion_fraction(BBox(0, 0, 10, 10), BBox(0, 0, 5, 10)) == 0.5

    def test_monotone_under_growing_occluder(self):
        target = BBox(0, 0, 10, 10)
        fracs = [occlusion_fraction(target, BBox(0, 0, w, 10)) for w in (2, 4, 6, 8, 10)]
        assert fracs == sorted(fracs)

    @given(box_strategy, box_strategy)
    @settings(max_examples=200)
    def test_bounds(self, t, o):
        assert 0.0 <= occlusion_fraction(t, o) <= 1.0


class TestCosineDistance:
    def test_identical_direction(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_distance(v, 2.5 * v) == pytest.approx(0.0, abs=1e-12)

    def test_opposite(self):
        v = np.array([1.0, -2.0])
        assert cosine_distance(v, -v) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            cosine_distance([0.0, 0.0], [1.0, 0.0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_symmetric_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = rng.normal(size=8)
            v = rng.normal(size=8)
            d = cosine_distance(u, v)
            assert 0.0 <= d <= 2.0
            assert d == pytest.approx(cosine_distance(v, u), abs=1e-12)


class TestAttributeDistance:
    def test_equal(self):
        p = np.linspace(0, 1, 32)
        assert attribute_distance(p, p) == 0.0

    def test_maximal(self):
        assert attribute_distance(np.ones(32), np.zeros(32)) == 1.0

    def test_half(self):
        assert attribute_distance(np.full(32, 0.5), np.zeros(32)) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            attribute_distance(np.ones(31), np.zeros(32))

    def test_symmetric_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.uniform(0, 1, 32)
            q = rng.uniform(0, 1, 32)
            d = attribute_distance(p, q)
            assert 0.0 <= d <= 1.0
            assert d == pytest.approx(attribute_distance(q, p), abs=1e-15)


def _valid_bits():
    bits = np.zeros(32)
    bits[0] = 1          # male
    bits[1] = 1          # body thin
    bits[5] = 1          # hair short
    bits[14] = 1         # upper black
    bits[23] = 1         # lower black
    return bits


class TestAttributeVectorValidation:
    def test_valid_accepted(self):
        vec = AttributeVector.binary(_valid_bits())
        assert vec.mode == "binary"

    def test_multi_hot_colors_allowed(self):
        bits = _valid_bits()
        bits[15] = 1
        bits[24] = 1
        AttributeVector.binary(bits)

    def test_body_one_hot_enforced(self):
        bits = _valid_bits()
        bits[2] = 1  # two body bits
        with pytest.raises(ValueError, match="body"):
            validate_binary_attributes(bits)
        bits = _valid_bits()
        bits[1] = 0  # no body bit
        with pytest.raises(ValueError, match="body"):
            validate_binary_attributes(bits)

    def test_hair_one_hot_enforced(self):
        bits = _valid_bits()
        bits[4] = 1
        with pytest.raises(ValueError, match="hair"):
            validate_binary_attributes(bits)

    def test_color_group_needs_a_bit(self):
        bits = _valid_bits()
        bits[14] = 0
        with pytest.raises(ValueError, match="upper-color"):
            validate_binary_attributes(bits)
        bits = _valid_bits()
        bits[23] = 0
        with pytest.raises(ValueError, match="lower-color"):
            validate_binary_attributes(bits)

    def test_non_binary_rejected(self):
        bits = _valid_bits()
        bits[7] = 0.5
        with pytest.raises(ValueError, match="non-binary"):
            validate_binary_attributes(bits)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            validate_binary_attributes(np.ones(31))

    def test_prob_mode_bounds(self):
        AttributeVector.prob(np.linspace(0, 1, 32))
        with pytest.raises(ValueError):
            AttributeVector.prob(np.full(32, 1.5))


class TestCarrierTypes:
    def test_detection_validates_confidence(self):
        with pytest.raises(ValueError):
            Detection(frame=1, box=BBox(0, 0, 5, 5), confidence=1.5)

    def test_detection_validates_frame(self):
        with pytest.raises(ValueError):
            Detection(frame=0, box=BBox(0, 0, 5, 5), confidence=0.5)

    def test_gt_entry_requires_positive_identity(self):
        with pytest.raises(ValueError):
            GtEntry(frame=1, identity=0, box=BBox(0, 0, 5, 5))
