"""Value types, distance primitives and the assignment solver."""
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment as scipy_assignment  # the oracle

from oracles import (attribute_distance, cosine_distance, occlusion_fraction,
                     validate_binary_attributes)

from attmot.core import (
    BBox,
    Detections,
    FeatureError,
    MotTable,
    binary_attribute_error,
    feature_row_error,
    iou,
    linear_sum_assignment,
    pairwise_iou,
    unit_rows,
)


def boxes(draw):
    left = draw(st.floats(-500, 500))
    top = draw(st.floats(-500, 500))
    w = draw(st.floats(0.5, 400))
    h = draw(st.floats(0.5, 400))
    return BBox(left, top, w, h)


box_strategy = st.composite(boxes)()


def _box_table(boxes):
    """(N, 4) (left, top, width, height) rows of the boxes."""
    rows = [(b.left, b.top, b.width, b.height) for b in boxes]
    return np.array(rows, dtype=float).reshape(-1, 4)


def _frame(n, **features):
    """A frame-3 ``Detections`` of ``n`` 5x5 boxes at confidence 0.5."""
    return Detections(3, np.tile([0.0, 0.0, 5.0, 5.0], (n, 1)), np.full(n, 0.5), **features)


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
        np.testing.assert_array_equal(pairwise_iou(_box_table(a), _box_table(b)), expected)


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


def _reason(bits):
    """The reason ``binary_attribute_error`` gives for one row, or None."""
    bad = binary_attribute_error(np.asarray(bits)[None])
    return None if bad is None else bad[1]


class TestAttributeVectorValidation:
    def test_valid_accepted(self):
        assert _reason(_valid_bits()) is None
        assert binary_attribute_error(np.zeros((0, 32))) is None

    def test_multi_hot_colors_allowed(self):
        bits = _valid_bits()
        bits[15] = 1
        bits[24] = 1
        assert _reason(bits) is None

    def test_body_one_hot_enforced(self):
        bits = _valid_bits()
        bits[2] = 1  # two body bits
        assert _reason(bits) == "body-shape bits must be one-hot"
        bits = _valid_bits()
        bits[1] = 0  # no body bit
        assert _reason(bits) == "body-shape bits must be one-hot"

    def test_hair_one_hot_enforced(self):
        bits = _valid_bits()
        bits[4] = 1
        assert _reason(bits) == "hair-length bits must be one-hot"

    def test_color_group_needs_a_bit(self):
        bits = _valid_bits()
        bits[14] = 0
        assert _reason(bits) == "upper-color bits must have at least one bit set"
        bits = _valid_bits()
        bits[23] = 0
        assert _reason(bits) == "lower-color bits must have at least one bit set"

    def test_non_binary_rejected(self):
        bits = _valid_bits()
        bits[7] = 0.5
        assert _reason(bits) == "binary attribute vector contains non-binary values"
        # the first rule a row breaks is its reason, and the first bad row wins
        bits[1] = 0
        table = np.array([_valid_bits(), bits, np.zeros(32)])
        assert binary_attribute_error(table) == (
            1, "binary attribute vector contains non-binary values")

    def test_wrong_length(self):
        for shape in ((1, 31), (32,), (2, 33)):
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                binary_attribute_error(np.ones(shape))

    def test_prob_mode_bounds(self):
        # predicted and observed attributes are probabilities in [0, 1]
        assert feature_row_error(None, np.linspace(0, 1, 32)[None]) is None
        assert feature_row_error(None, np.full((1, 32), 1.5)) == (
            0, "attribute probabilities must lie in [0, 1]")


@st.composite
def _attribute_tables(draw):
    """(n, 32) tables of valid rows with up to two values each replaced,
    mostly by 0 or 1 in a group, so that every rule is broken often."""
    n = draw(st.integers(0, 5))
    bits = np.tile(_valid_bits(), (n, 1))
    index = st.one_of(st.integers(1, 6), st.sampled_from([14, 23]), st.integers(0, 31))
    value = st.sampled_from([0.0, 1.0] * 3 + [0.5, 2.0, math.nan, math.inf])
    for row in bits:
        for _ in range(draw(st.integers(0, 2))):
            row[draw(index)] = draw(value)
    return bits


@given(bits=_attribute_tables())
def test_binary_attribute_error_matches_row_oracle(bits):
    want = None
    for row, vector in enumerate(bits):
        try:
            validate_binary_attributes(vector)
        except ValueError as exc:
            want = (row, str(exc))
            break
    assert binary_attribute_error(bits) == want


class TestCarrierTypes:
    def test_detections_construction_checks_feature_rows(self):
        # a frame's arrays are checked once, when its table is built
        with pytest.raises(FeatureError,
                           match=r"^frame 3, detection 1: embedding contains non-finite"):
            _frame(2, embeddings=np.array([[0.0], [math.nan]]))
        # the table keeps read-only views, so a checked row cannot change later
        emb = np.zeros((2, 3))
        d = _frame(2, embeddings=emb[:, :2], attrs=np.full((2, 32), 0.5))
        assert np.shares_memory(d.embeddings, emb) and d.embeddings.shape == (2, 2)
        assert not d.embeddings.flags.writeable and not d.boxes.flags.writeable
        assert emb.flags.writeable
        with pytest.raises(ValueError, match="expected 2 rows of embeddings"):
            _frame(2, embeddings=np.zeros((3, 4)))

    def test_detection_validates_confidence(self):
        with pytest.raises(ValueError, match="^frame 3, detection 1: .*confidence 1.5"):
            Detections(3, np.tile([0.0, 0.0, 5.0, 5.0], (2, 1)), np.array([0.5, 1.5]))

    def test_detection_validates_frame(self):
        with pytest.raises(ValueError, match="frame index must be >= 1"):
            Detections(0, np.zeros((0, 4)), np.zeros(0))

    @pytest.mark.parametrize("box", [[0.0, 0.0, 0.0, 5.0], [0.0, math.nan, 5.0, 5.0],
                                     [math.inf, 0.0, 5.0, 5.0]])
    def test_detections_validate_boxes(self, box):
        with pytest.raises(ValueError, match=r"^frame 2, detection 1: box \["):
            Detections(2, np.array([[0.0, 0.0, 5.0, 5.0], box]), np.full(2, 0.5))

    def test_mot_table_requires_positive_identity(self):
        with pytest.raises(ValueError, match="^frame 1, identity 0: "):
            MotTable([1], [0], [[0, 0, 5, 5]])


class TestMotTable:
    def test_sorts_rows_and_defaults_columns(self):
        t = MotTable([2, 1, 1], [1, 3, 2], [[0, 0, 1, 1], [1, 1, 2, 2], [3, 3, 4, 4]],
                     [True, False, True])
        assert list(zip(t.frames.tolist(), t.ids.tolist())) == [(1, 2), (1, 3), (2, 1)]
        assert t.boxes.tolist() == [[3, 3, 4, 4], [1, 1, 2, 2], [0, 0, 1, 1]]
        assert t.active.tolist() == [True, False, True]
        assert t.visibility.tolist() == [1.0, 1.0, 1.0]
        assert (t.frames.dtype, t.ids.dtype, t.boxes.dtype) == (np.int64, np.int64, np.float64)
        assert len(t) == 3 and len(MotTable([], [], [])) == 0

    def test_columns_are_read_only(self):
        t = MotTable([1], [1], [[0, 0, 1, 1]])
        for column in (t.frames, t.ids, t.boxes, t.active, t.visibility):
            with pytest.raises(ValueError, match="read-only"):
                column[...] = 0

    def test_equality_is_columnwise(self):
        a = MotTable([1, 2], [1, 1], [[0, 0, 1, 1], [0, 0, 1, 2]])
        assert a == MotTable([2, 1], [1, 1], [[0, 0, 1, 2], [0, 0, 1, 1]])
        assert a != MotTable([1, 2], [1, 1], [[0, 0, 1, 1], [0, 0, 1, 2]], [True, False])
        assert a != MotTable([1, 2], [1, 1], [[0, 0, 1, 1], [0, 0, 1, 2]], None, [1.0, 0.5])

    @pytest.mark.parametrize("frame,ident,box,vis", [
        (0, 1, [0, 0, 5, 5], 1.0), (1, 1, [0, 0, 0, 5], 1.0),
        (1, 1, [0, 0, 5, -1], 1.0), (1, 1, [math.nan, 0, 5, 5], 1.0),
        (1, 1, [0, math.inf, 5, 5], 1.0), (1, 1, [0, 0, 5, 5], 1.5),
        (1, 1, [0, 0, 5, 5], math.nan)])
    def test_refuses_a_bad_row_by_frame_and_identity(self, frame, ident, box, vis):
        with pytest.raises(ValueError, match=f"^frame {frame}, identity {ident}: "):
            MotTable([3, frame], [1, ident], [[0, 0, 5, 5], box], None, [1.0, vis])

    def test_refuses_a_repeated_identity(self):
        with pytest.raises(ValueError, match="^frame 2: identity 4 appears twice$"):
            MotTable([2, 1, 2], [4, 4, 4], [[0, 0, 5, 5]] * 3)

    @pytest.mark.parametrize("column", [[1.0], [True]])
    def test_refuses_non_integer_frames_and_ids(self, column):
        for args in ((column, [1]), ([1], column)):
            with pytest.raises(ValueError, match="must be integers"):
                MotTable(*args, [[0, 0, 5, 5]])

    def test_refuses_mismatched_shapes(self):
        with pytest.raises(ValueError, match="expected \\(n,\\)"):
            MotTable([1, 2], [1], [[0, 0, 5, 5]] * 2)


class TestUnitRows:
    @given(st.integers(1, 6), st.sampled_from([1, 2, 3, 8, 31, 64, 257, 512, 1000]),
           st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3))
    def test_equals_linalg_norm_per_row(self, n, dim, seed, scale):
        x = scale * np.random.default_rng(seed).standard_normal((n, dim))
        want = np.array([row / np.linalg.norm(row) for row in x])
        assert unit_rows(x).tobytes() == want.tobytes()

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="degenerate embedding"):
            unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestFeatureRowError:
    def _rows(self, n=4, dim=3):
        return np.zeros((n, dim)), np.full((n, 32), 0.5)

    def test_valid_rows(self):
        assert feature_row_error(*self._rows()) is None
        assert feature_row_error(None, None) is None
        assert feature_row_error(np.zeros((0, 5)), np.zeros((0, 7))) is None

    @pytest.mark.parametrize("row,col,value,reason", [
        (2, None, math.nan, "embedding contains non-finite values"),
        (1, None, -math.inf, "embedding contains non-finite values"),
        (3, 31, math.nan, "attribute vector contains non-finite values"),
        (0, 4, math.inf, "attribute vector contains non-finite values"),
        (1, 0, 1.0 + 2 ** -52, "attribute probabilities must lie in [0, 1]"),
        (2, 9, -0.5, "attribute probabilities must lie in [0, 1]"),
    ])
    def test_first_bad_row_and_reason(self, row, col, value, reason):
        emb, attrs = self._rows()
        if col is None:
            emb[row, 1] = value
        else:
            attrs[row, col] = value
        assert feature_row_error(emb, attrs) == (row, reason)

    def test_earliest_row_wins_then_embedding_first(self):
        emb, attrs = self._rows()
        attrs[1, 0] = 2.0
        emb[2, 0] = math.nan
        assert feature_row_error(emb, attrs) == (1, "attribute probabilities must lie in [0, 1]")
        emb[1, 0] = math.nan
        assert feature_row_error(emb, attrs) == (1, "embedding contains non-finite values")

    def test_stacking_rejects_wrong_attribute_width(self):
        # a frame's attributes are one table; one of the wrong width is
        # wrong from its first row on, and ragged rows make no table
        assert _frame(2, attrs=np.full((2, 32), 0.5)).attrs.shape == (2, 32)
        assert _frame(0, attrs=np.zeros((0, 32))).attrs.shape == (0, 32)
        with pytest.raises(FeatureError, match=r"^frame 3, detection 0: expected 32 attribute "
                                               r"values, got shape \(33,\)$"):
            _frame(3, attrs=np.full((3, 33), 0.5))
        with pytest.raises(ValueError, match="inhomogeneous"):
            _frame(3, attrs=[np.full(32, 0.5), np.full(32, 0.5), np.full(33, 0.5)])

    @given(st.integers(0, 6), st.integers(0, 4), st.booleans(), st.booleans(), st.data())
    @settings(max_examples=200)
    def test_detections_reject_exactly_the_flagged_rows(self, n, dim, with_emb, with_attrs,
                                                        data):
        emb = data.draw(hnp.arrays(np.float64, (n, dim), elements=st.floats(-1e3, 1e3))).copy()
        attrs = data.draw(hnp.arrays(np.float64, (n, 32), elements=st.floats(0.0, 1.0))).copy()
        spoilers = st.sampled_from([math.nan, math.inf, -math.inf, -0.25, 1.0 + 2 ** -52])
        for _ in range(data.draw(st.integers(0, 3)) if n else 0):
            table = emb if dim and data.draw(st.booleans()) else attrs
            table[data.draw(st.integers(0, n - 1)),
                  data.draw(st.integers(0, table.shape[1] - 1))] = data.draw(spoilers)
        features = dict(embeddings=emb if with_emb else None, attrs=attrs if with_attrs else None)
        bad = feature_row_error(features["embeddings"], features["attrs"])
        if bad is None:
            assert len(_frame(n, **features)) == n
        else:
            with pytest.raises(FeatureError,
                               match=f"^frame 3, detection {bad[0]}: {re.escape(bad[1])}$"):
                _frame(n, **features)
