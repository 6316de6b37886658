"""MOT file and sidecar parsing/writing, round-trip safety."""
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from attmot import motio
from attmot.core import (N_ATTRIBUTES, AttributeVector, BBox, Detection, FeatureError, GtEntry,
                         validate_prob_attributes)
from attmot.motio import MotFormatError, parse_attr_file, parse_mot_file, write_mot_file


# The row-at-a-time sidecar writer and parser that the bulk versions
# replaced, kept as their oracle.
def _write_feature_loop(detections):
    rows = sorted(detections, key=lambda d: d.frame)
    buf = io.StringIO()
    dim = None
    for d in rows:
        if d.embedding is None or d.attr_obs is None:
            raise ValueError("detection without features cannot be written to a feature file")
        if dim is None:
            dim = len(d.embedding)
            buf.write(f"{motio.FEAT_HEADER_PREFIX}{dim}\n")
        elif len(d.embedding) != dim:
            raise ValueError("inconsistent embedding dimension in feature file")
        vals = np.concatenate([d.embedding, d.attr_obs])
        buf.write(str(d.frame) + "," + ",".join(f"{v:.10g}" for v in vals) + "\n")
    if dim is None:
        buf.write(f"{motio.FEAT_HEADER_PREFIX}0\n")
    return buf.getvalue()


def _parse_feature_loop(source, detections):
    lines = [(n, ln.strip()) for n, ln in enumerate(motio._open_lines(source), start=1)]
    lines = [(n, ln) for n, ln in lines if ln]
    if not lines or not lines[0][1].startswith(motio.FEAT_HEADER_PREFIX):
        raise MotFormatError("feature file missing header")
    header_no, header = lines[0]
    try:
        dim = int(header[len(motio.FEAT_HEADER_PREFIX):])
    except ValueError as exc:
        raise MotFormatError(f"bad feature header at line {header_no}: {exc}") from None
    if dim < 0:
        raise MotFormatError(f"negative embedding dimension at line {header_no}")
    body = lines[1:]
    if len(body) != len(detections):
        raise MotFormatError(
            f"feature file has {len(body)} rows for {len(detections)} detections"
        )
    out = []
    for (lineno, line), det in zip(body, detections):
        fields = line.split(",")
        if len(fields) != 1 + dim + N_ATTRIBUTES:
            raise MotFormatError(
                f"expected {1 + dim + N_ATTRIBUTES} fields at line {lineno}, got {len(fields)}"
            )
        try:
            frame = int(fields[0])
            if frame != det.frame:
                raise ValueError(f"feature row frame {frame} does not match detection"
                                 f" frame {det.frame}")
            vals = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            emb, attr = vals[:dim], np.clip(vals[dim:], 0.0, 1.0)
            # the array checks that Detection construction ran
            if not np.all(np.isfinite(emb)):
                raise ValueError("embedding contains non-finite values")
            validate_prob_attributes(attr)
            out.append(
                Detection(
                    frame=det.frame,
                    box=det.box,
                    confidence=det.confidence,
                    embedding=emb,
                    attr_obs=attr,
                )
            )
        except ValueError as exc:
            raise MotFormatError(f"{exc} at line {lineno}") from None
    return out


def _feature_dets(n=6, dim=8):
    rng = np.random.default_rng(2)
    out = []
    for i in range(n):
        out.append(Detection(
            frame=1 + i // 2, box=BBox(i * 10, 5, 4, 9), confidence=0.9,
            embedding=rng.normal(size=dim), attr_obs=rng.uniform(0, 1, 32)))
    return out


def _gt_entries():
    return [GtEntry(frame=1 + i // 3, identity=1 + i % 3, box=BBox(i, 2 * i, 5 + i, 9),
                    visibility=1.0, active=i % 4 != 3) for i in range(6)]


def _assert_parsers_agree(text, bare):
    """The bulk parser returns what the loop returns, bit for bit, or raises
    the same error (a value written ``%.10g`` may round up to inf)."""
    try:
        want = _parse_feature_loop(text, bare)
    except MotFormatError as exc:
        with pytest.raises(MotFormatError, match=f"^{re.escape(str(exc))}$"):
            motio.parse_feature_file(text, bare)
        return
    _assert_same_features(motio.parse_feature_file(text, bare), want)


def _reads_inf(text):
    """Whether a written sidecar holds a field that reads back as inf."""
    return any(np.isinf(float(v)) for line in text.splitlines()[1:] for v in line.split(","))


def _assert_same_features(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.frame, a.box, a.confidence) == (b.frame, b.box, b.confidence)
        for x, y in ((a.embedding, b.embedding), (a.attr_obs, b.attr_obs)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y) and x.tobytes() == y.tobytes()


class TestParseMot:
    def test_gt_line(self):
        entries = parse_mot_file(b"1,1,100,100,50,100,1,-1,-1,-1\n", kind="gt")
        assert len(entries) == 1
        g = entries[0]
        assert (g.frame, g.identity) == (1, 1)
        assert g.box == BBox(100, 100, 50, 100)
        assert g.active and g.visibility == 1.0

    def test_empty_file(self):
        assert parse_mot_file(b"", kind="gt") == []
        assert parse_mot_file(b"", kind="det") == []

    def test_non_positive_box(self):
        with pytest.raises(MotFormatError, match="non-positive box at line 1"):
            parse_mot_file(b"1,1,100,100,-5,100,1,-1,-1,-1\n", kind="gt")

    def test_bad_field_count(self):
        with pytest.raises(MotFormatError, match="line 2"):
            parse_mot_file(b"1,1,0,0,5,5,1,-1,-1,-1\n1,2,0,0\n", kind="gt")

    def test_bad_number(self):
        with pytest.raises(MotFormatError, match="line 1"):
            parse_mot_file(b"1,x,0,0,5,5,1,-1,-1,-1\n", kind="gt")

    def test_frame_must_be_positive(self):
        with pytest.raises(MotFormatError, match="line 1"):
            parse_mot_file(b"0,1,0,0,5,5,1,-1,-1,-1\n", kind="gt")

    def test_sorted_by_frame_then_id(self):
        text = b"2,2,0,0,5,5,1,-1,-1,-1\n1,9,0,0,5,5,1,-1,-1,-1\n2,1,0,0,5,5,1,-1,-1,-1\n"
        entries = parse_mot_file(text, kind="gt")
        assert [(e.frame, e.identity) for e in entries] == [(1, 9), (2, 1), (2, 2)]

    def test_det_kind_carries_confidence(self):
        dets = parse_mot_file(b"3,-1,10,10,5,5,0.75,-1,-1,-1\n", kind="det")
        assert isinstance(dets[0], Detection)
        assert dets[0].confidence == 0.75
        assert dets[0].embedding is None

    def test_nine_field_gt_carries_visibility(self):
        entries = parse_mot_file(b"1,1,0,0,5,5,1,1,0.25\n", kind="gt")
        assert entries[0].visibility == 0.25

    def test_inactive_flag(self):
        entries = parse_mot_file(b"1,1,0,0,5,5,0,-1,-1,-1\n", kind="gt")
        assert not entries[0].active

    def test_duplicate_identity_in_frame(self):
        text = b"1,1,0,0,5,5,1,-1,-1,-1\n1,2,0,0,5,5,1,-1,-1,-1\n1,2,9,9,5,5,0,-1,-1,-1\n"
        with pytest.raises(MotFormatError, match="duplicate identity 2 in frame 1 at line 3"):
            parse_mot_file(text, kind="gt")

    def test_identity_may_repeat_across_frames(self):
        text = b"1,2,0,0,5,5,1,-1,-1,-1\n2,2,0,0,5,5,1,-1,-1,-1\n"
        assert len(parse_mot_file(text, kind="gt")) == 2
        dets = b"1,-1,0,0,5,5,0.5,-1,-1,-1\n1,-1,9,9,5,5,0.5,-1,-1,-1\n"
        assert len(parse_mot_file(dets, kind="det")) == 2

    def test_path_input(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,1,0,0,5,5,1,-1,-1,-1\n")
        assert len(parse_mot_file(p, kind="gt")) == 1

    @pytest.mark.parametrize("text,kind", [
        pytest.param("1,1,0,0,5,5,1,-1,-1,-1\n1,2,0,0,5,5,nan,-1,-1,-1\n", "gt", id="nan-active"),
        pytest.param("1,1,0,0,5,5,1,-1,-1,-1\n1,2,0,0,5,5,inf,-1,-1,-1\n", "gt", id="inf-active"),
        pytest.param("1,-1,0,0,5,5,0.5,-1,-1,-1\n1,-1,0,0,5,5,nan,-1,-1,-1\n", "det", id="nan-conf"),
        pytest.param("1,1,0,0,5,5,1,-1,-1,-1\n1,2,nan,0,5,5,1,-1,-1,-1\n", "gt", id="nan-box"),
        pytest.param("1,1,0,0,5,5,1,-1,-1,-1\n1,2,0,0,inf,5,1,-1,-1,-1\n", "gt", id="inf-box"),
        pytest.param("1,-1,0,0,5,5,0.5,-1,-1,-1\n1,-1,0,-inf,5,5,0.5,-1,-1,-1\n", "det",
                     id="inf-det-box"),
        pytest.param("1,1,0,0,5,5,1,1,1\n1,2,0,0,5,5,1,1,nan\n", "gt", id="nan-visibility"),
    ])
    def test_non_finite_field_names_line(self, text, kind):
        with pytest.raises(MotFormatError, match="non-finite .* at line 2"):
            parse_mot_file(text.encode(), kind=kind)


def _bits(*on):
    bits = np.zeros(32)
    bits[1] = bits[4] = bits[14] = bits[23] = 1
    for i in on:
        bits[i] = 1
    return bits


class TestAttrFile:
    def test_valid(self):
        vec = AttributeVector.binary(_bits(0))
        text = motio.write_attr_file({7: vec})
        parsed = parse_attr_file(text.encode())
        assert parsed == {7: vec}

    def test_header_written(self):
        text = motio.write_attr_file({})
        assert text.startswith("# attmot-attrs v1")

    def test_wrong_field_count(self):
        with pytest.raises(MotFormatError, match="expected 33 fields"):
            parse_attr_file(b"7," + b",".join(b"0" for _ in range(31)) + b"\n")

    def test_duplicate_identity(self):
        line = "7," + ",".join(str(int(b)) for b in _bits())
        with pytest.raises(MotFormatError, match="duplicate identity 7"):
            parse_attr_file((line + "\n" + line + "\n").encode())

    def test_group_violation_located(self):
        bad = np.zeros(32)
        line = "3," + ",".join(str(int(b)) for b in bad)
        with pytest.raises(MotFormatError, match="line 1"):
            parse_attr_file(line.encode())


class TestRoundTrip:
    def _fixture_entries(self, n=100):
        rng = np.random.default_rng(5)
        out = []
        for i in range(n):
            frame = int(rng.integers(1, 30))
            ident = int(rng.integers(1, 12))
            box = BBox(round(float(rng.uniform(0, 500)), 2), round(float(rng.uniform(0, 300)), 2),
                       round(float(rng.uniform(1, 80)), 2), round(float(rng.uniform(1, 120)), 2))
            out.append(GtEntry(frame=frame, identity=ident, box=box,
                               active=bool(rng.random() > 0.1)))
        # (frame, id) must be unique for a well-formed file
        seen = set()
        unique = []
        for e in out:
            if (e.frame, e.identity) not in seen:
                seen.add((e.frame, e.identity))
                unique.append(e)
        return unique

    def test_parse_write_parse_identity(self):
        entries = self._fixture_entries()
        text = write_mot_file(entries)
        parsed = parse_mot_file(text.encode(), kind="gt")
        assert parsed == sorted(entries, key=lambda g: (g.frame, g.identity))

    def test_write_is_canonical(self):
        entries = self._fixture_entries()
        once = write_mot_file(entries)
        twice = write_mot_file(parse_mot_file(once.encode(), kind="gt"))
        assert once == twice

    def test_single_track_three_frames(self):
        entries = [GtEntry(frame=f, identity=4, box=BBox(1, 2, 3, 4)) for f in (3, 1, 2)]
        text = write_mot_file(entries)
        frames = [int(line.split(",")[0]) for line in text.strip().splitlines()]
        assert frames == [1, 2, 3]

    def test_empty_result(self):
        assert write_mot_file([]) == ""

    @given(st.lists(
        st.tuples(st.integers(1, 20), st.integers(1, 9),
                  st.integers(0, 2000), st.integers(0, 2000),
                  st.integers(1, 500), st.integers(1, 500)),
        max_size=30))
    @settings(max_examples=60)
    def test_round_trip_random(self, rows):
        seen = set()
        entries = []
        for frame, ident, l, t, w, h in rows:
            if (frame, ident) in seen:
                continue
            seen.add((frame, ident))
            entries.append(GtEntry(frame=frame, identity=ident, box=BBox(l, t, w, h)))
        text = write_mot_file(entries)
        assert parse_mot_file(text.encode(), kind="gt") == sorted(
            entries, key=lambda g: (g.frame, g.identity))


class TestFeatureSidecar:
    def _dets(self, n=6, dim=8):
        return _feature_dets(n, dim)

    def test_round_trip(self):
        dets = self._dets()
        det_text = motio.write_det_file(dets)
        feat_text = motio.write_feature_file(dets)
        bare = parse_mot_file(det_text.encode(), kind="det")
        joined = motio.parse_feature_file(feat_text.encode(), bare)
        for a, b in zip(dets, joined):
            assert a.frame == b.frame
            np.testing.assert_allclose(a.embedding, b.embedding, rtol=1e-9)
            np.testing.assert_allclose(a.attr_obs, b.attr_obs, rtol=1e-9)

    def test_row_count_mismatch(self):
        dets = self._dets()
        feat_text = motio.write_feature_file(dets)
        with pytest.raises(MotFormatError, match="rows for"):
            motio.parse_feature_file(feat_text.encode(), dets[:-1])

    @pytest.mark.parametrize("lineno,field,value", [
        (1, None, "# attmot-feats v1 dim=x"),    # bad dim= header
        (1, None, "# attmot-feats v1 dim=-2"),
        (3, 0, "1.5"),                           # non-integer frame
        (4, 2, "abc"),                           # non-numeric field
        (5, 1, "nan"),                           # NaN embedding
        (6, -1, "nan"),                          # NaN attribute
        (3, 0, "1.0"),                           # integral but float frame
        (4, 2, "1_0"),                           # digit separator (float() takes it)
        (5, 3, None),                            # missing field, named by the scan
        (7, 3, "0.5,0.5"),                       # extra field, named by the scan
        (6, 0, "#"),                             # comment marker is no comment here
    ])
    def test_malformed_row_names_line(self, lineno, field, value):
        dets = self._dets()
        lines = motio.write_feature_file(dets).splitlines()
        if field is None:
            lines[lineno - 1] = value
        else:
            fields = lines[lineno - 1].split(",")
            if value is None:
                del fields[field]
            else:
                fields[field] = value
            lines[lineno - 1] = ",".join(fields)
        with pytest.raises(MotFormatError, match=f"at line {lineno}"):
            motio.parse_feature_file(("\n".join(lines) + "\n").encode(), dets)

    @pytest.mark.parametrize("value", [1.7976931346e308, -1.7976931348623157e308])
    def test_value_written_as_inf_names_row(self, value):
        dets = self._dets()
        emb = dets[4].embedding.copy()
        emb[1] = value
        dets[4] = Detection(frame=dets[4].frame, box=dets[4].box, confidence=0.9,
                            embedding=emb, attr_obs=dets[4].attr_obs)
        with pytest.raises(ValueError, match=r"^feature row 5 \(frame 3\) .* inf$"):
            motio.write_feature_file(dets)

    @pytest.mark.parametrize("field,index,value,reason", [
        ("embedding", 1, np.nan, "embedding contains non-finite values"),
        ("embedding", 0, -np.inf, "embedding contains non-finite values"),
        ("attr_obs", 3, -0.25, r"attribute probabilities must lie in \[0, 1\]"),
        ("attr_obs", 3, np.nan, "attribute vector contains non-finite values"),
        ("attr_obs", slice(0, 31), None, r"expected 32 attribute values, got shape \(31,\)"),
    ])
    def test_writer_rejects_bad_row_by_number(self, field, index, value, reason):
        dets = self._dets()
        arrays = {"embedding": dets[4].embedding.copy(), "attr_obs": dets[4].attr_obs.copy()}
        if value is None:
            arrays[field] = arrays[field][index]
        else:
            arrays[field][index] = value
        dets[4] = Detection(frame=dets[4].frame, box=dets[4].box, confidence=0.9, **arrays)
        with pytest.raises(FeatureError, match=rf"^feature row 5 \(frame 3\): {reason}"):
            motio.write_feature_file(dets)

    def test_writer_names_rows_past_the_first_block(self):
        dets = _feature_dets(600, 4)
        emb = dets[400].embedding.copy()
        emb[2] = np.inf
        dets[400] = Detection(frame=dets[400].frame, box=dets[400].box, confidence=0.9,
                              embedding=emb, attr_obs=dets[400].attr_obs)
        with pytest.raises(FeatureError, match=r"^feature row 401 \(frame 201\): embedding"):
            motio.write_feature_file(dets)
        dets[400] = Detection(frame=dets[400].frame, box=dets[400].box, confidence=0.9,
                              embedding=dets[401].embedding, attr_obs=dets[400].attr_obs[:5])
        with pytest.raises(FeatureError, match=r"^feature row 401 \(frame 201\): expected 32"):
            motio.write_feature_file(dets)

    def test_largest_finite_text_is_written(self):
        dets = self._dets(1)
        emb = dets[0].embedding.copy()
        emb[0] = 1.7976931344e308
        dets[0] = Detection(frame=1, box=dets[0].box, confidence=0.9, embedding=emb,
                            attr_obs=dets[0].attr_obs)
        text = motio.write_feature_file(dets)
        assert ",1.797693134e+308," in text
        assert motio.parse_feature_file(text.encode(), dets)[0].embedding[0] == 1.797693134e308

    def test_missing_header(self):
        with pytest.raises(MotFormatError, match="header"):
            motio.parse_feature_file(b"1,0.5,0.5\n", self._dets(1))

    def test_uniform_wrong_width_names_first_row(self):
        # Every row converts, but the header promises one column fewer.
        dets = self._dets()
        text = motio.write_feature_file(dets).replace("dim=8", "dim=7", 1)
        with pytest.raises(MotFormatError, match="expected 40 fields at line 2, got 41"):
            motio.parse_feature_file(text.encode(), dets)

    def test_digit_separator_stricter_than_float(self):
        # float("1_0") is 10.0, so the row-at-a-time parser took this row;
        # the bulk conversion rejects it.
        dets = self._dets(1)
        lines = motio.write_feature_file(dets).splitlines()
        fields = lines[1].split(",")
        fields[1] = "1_0"
        text = ("\n".join([lines[0], ",".join(fields)]) + "\n").encode()
        assert _parse_feature_loop(text, dets)[0].embedding[0] == 10.0
        with pytest.raises(MotFormatError, match="bad numeric field at line 2"):
            motio.parse_feature_file(text, dets)

    def test_empty_sidecar(self):
        text = motio.write_feature_file([])
        assert text == _write_feature_loop([])
        assert motio.parse_feature_file(text.encode(), []) == []

    def test_header_dimension_read_alone(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("\n" + motio.write_feature_file(self._dets(dim=8)))
        assert motio.parse_feature_dim(path) == 8
        path.write_text("# attmot-feats v1 dim=x\n")
        with pytest.raises(MotFormatError, match=re.escape(str(path)) + ": bad feature header"):
            motio.parse_feature_dim(path)
        with pytest.raises(MotFormatError, match="missing header"):
            motio.parse_feature_dim(b"\n")


_SPECIAL_64 = [-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, -3.5e-300,
               1e300, -1.7976931348623157e308, 0.1, 1 / 3]
_SPECIAL_ATTR = [-0.0, 0.0, 5e-324, 1e-310, 1.0, 0.5, 1 - 2 ** -53]


def _feature_rows(dtype):
    """Strategy for Detection lists with embeddings and attributes of ``dtype``."""
    width = 64 if dtype == np.float64 else 32
    emb_elems = st.floats(allow_nan=False, allow_infinity=False, width=width)
    attr_elems = st.floats(0.0, 1.0, width=width)
    if dtype == np.float64:
        emb_elems = st.one_of(st.sampled_from(_SPECIAL_64), emb_elems)
        attr_elems = st.one_of(st.sampled_from(_SPECIAL_ATTR), attr_elems)

    @st.composite
    def rows(draw):
        dim = draw(st.sampled_from([0, 1, 8, 512]))
        frames = draw(st.lists(st.integers(1, 5), max_size=4))
        return [Detection(frame=f, box=BBox(1, 2, 3, 4), confidence=0.5,
                          embedding=draw(hnp.arrays(dtype, dim, elements=emb_elems)),
                          attr_obs=draw(hnp.arrays(dtype, N_ATTRIBUTES, elements=attr_elems)))
                for f in frames]

    return rows()


_FIELD_FORMATS = ["{!r}", "{:.17g}", "{:.10g}", "{:.3e}", "{:.0f}", "{:+.6E}"]


class TestBulkSidecarOracle:
    @given(st.one_of(_feature_rows(np.float64), _feature_rows(np.float32)))
    @settings(max_examples=80)
    def test_writer_bytes_equal_loop(self, dets):
        # byte-identical to the oracle, or a ValueError exactly where the
        # oracle's %.10g text reads back as inf
        want = _write_feature_loop(dets)
        if _reads_inf(want):
            with pytest.raises(ValueError, match=r"^feature row \d+ \(frame \d+\) .* inf$"):
                motio.write_feature_file(dets)
        else:
            assert motio.write_feature_file(dets) == want

    @given(st.one_of(_feature_rows(np.float64), _feature_rows(np.float32)))
    @settings(max_examples=60)
    def test_parser_equals_loop_on_written_text(self, dets):
        try:
            text = motio.write_feature_file(dets).encode()
        except ValueError:
            # the writer refuses a row the parsers would reject as inf
            assert _reads_inf(_write_feature_loop(dets))
            return
        bare = [Detection(frame=d.frame, box=d.box, confidence=d.confidence)
                for d in sorted(dets, key=lambda d: d.frame)]
        _assert_same_features(motio.parse_feature_file(text, bare),
                              _parse_feature_loop(text, bare))

    @given(st.data(), st.sampled_from([0, 1, 8]), st.integers(1, 4))
    @settings(max_examples=100)
    def test_parser_equals_float_on_any_decimal(self, data, dim, n):
        # Fields in forms the writer never produces (17 digits, exponents,
        # integers, signs, out-of-range attributes that clip) still convert
        # exactly as float() does.
        finite = st.floats(allow_nan=False, allow_infinity=False)
        rows = []
        for i in range(n):
            vals = data.draw(st.lists(finite, min_size=dim, max_size=dim))
            vals += data.draw(st.lists(st.floats(-0.5, 1.5), min_size=N_ATTRIBUTES,
                                       max_size=N_ATTRIBUTES))
            fmts = data.draw(st.lists(st.sampled_from(_FIELD_FORMATS),
                                      min_size=len(vals), max_size=len(vals)))
            rows.append(f"{1 + i}," + ",".join(f.format(v) for f, v in zip(fmts, vals)))
        text = (f"{motio.FEAT_HEADER_PREFIX}{dim}\n" + "\n".join(rows) + "\n").encode()
        bare = [Detection(frame=1 + i, box=BBox(1, 2, 3, 4), confidence=0.5) for i in range(n)]
        _assert_parsers_agree(text, bare)


class TestErrorsNameFile:
    @pytest.mark.parametrize("name,text,parse", [
        ("gt.txt", "1,1,0,0,5,5,1,-1,-1,-1\n1,1,0,0,5,5,1,-1,-1,-1\n",
         lambda p: parse_mot_file(p, kind="gt")),
        ("det.txt", "1,-1,0,0,5,5,0.5,-1,-1,-1\n1,-1,0,0,-5,5,0.5,-1,-1,-1\n",
         lambda p: parse_mot_file(str(p), kind="det")),
        ("attrs.txt", "# attmot-attrs v1\n7," + ",".join("0" * 31) + "\n", parse_attr_file),
        ("feats.csv", motio.write_feature_file(_feature_dets(2)).replace(",", ",,", 1),
         lambda p: motio.parse_feature_file(p, _feature_dets(2))),
    ])
    def test_path_source_names_file_and_line(self, tmp_path, name, text, parse):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(MotFormatError, match=re.escape(str(path)) + ": .*at line 2"):
            parse(path)

    @pytest.mark.parametrize("text,parse", [
        (b"1,1,0,0,5,5,1,-1,-1,-1\n1,2,0,0,5,\xe9,1,-1,-1,-1\n",
         lambda s: parse_mot_file(s, kind="gt")),
        (b"1,-1,0,0,5,5,0.5,-1,-1,-1\n# d\xe9tections\n", lambda s: parse_mot_file(s, kind="det")),
        (b"# attmot-attrs v1\n\xe9\n", parse_attr_file),
        (motio.write_feature_file(_feature_dets(2)).encode().replace(b"\n", b"\n\xe9", 1),
         lambda s: motio.parse_feature_file(s, _feature_dets(2))),
    ], ids=["gt", "det", "attrs", "feats"])
    def test_non_ascii_byte_names_line(self, tmp_path, text, parse):
        path = tmp_path / "input.txt"
        path.write_bytes(text)
        with pytest.raises(MotFormatError,
                           match="^" + re.escape(str(path)) + ": non-ASCII character at line 2$"):
            parse(path)
        for source in (text, io.BytesIO(text), io.StringIO(text.decode("latin-1"))):
            with pytest.raises(MotFormatError, match="^non-ASCII character at line 2$"):
                parse(source)

    def test_stream_source_keeps_message(self):
        with pytest.raises(MotFormatError, match="^non-positive box at line 1$"):
            parse_mot_file(b"1,1,0,0,-5,5,1,-1,-1,-1\n", kind="gt")


_FUZZ_TOKENS = ["abc", "nan", "1_0", "#", "\xe9", "1\xe9"]


@st.composite
def _mutated(draw, text):
    """``text`` after one to three edits: drop a field, double a comma,
    swap a field for a bad token (some hold the non-ASCII byte 0xe9), or
    truncate a row."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        k = draw(st.integers(0, len(fields) - 1))
        op = draw(st.sampled_from(["delete", "comma", "swap", "truncate"]))
        if op == "delete":
            del fields[k]
        elif op == "comma":
            fields.insert(max(k, 1), "")
        elif op == "swap":
            fields[k] = draw(st.sampled_from(_FUZZ_TOKENS))
        else:
            fields = [lines[i][:draw(st.integers(0, len(lines[i])))]]
        lines[i] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode("latin-1")


_FUZZ_DETS = _feature_dets(4, 3)
_FUZZ_ATTRS = {3: AttributeVector.binary(_bits()), 5: AttributeVector.binary(_bits(0))}
_FUZZ_CASES = {
    "det": (motio.write_det_file(_FUZZ_DETS), lambda b: parse_mot_file(b, kind="det")),
    "gt": (write_mot_file(_gt_entries()), lambda b: parse_mot_file(b, kind="gt")),
    "attrs": (motio.write_attr_file(_FUZZ_ATTRS), parse_attr_file),
    "feats": (motio.write_feature_file(_FUZZ_DETS),
              lambda b: motio.parse_feature_file(b, _FUZZ_DETS)),
}


@pytest.mark.parametrize("kind", sorted(_FUZZ_CASES))
def test_fuzz_valid_text_parses(kind):
    text, parse = _FUZZ_CASES[kind]
    assert parse(text.encode())


# Module level, not a method: hypothesis wants one executor per test, and
# pytest makes a new instance for every parameter.
@pytest.mark.parametrize("kind", sorted(_FUZZ_CASES))
@given(data=st.data())
@settings(max_examples=150)
def test_fuzz_parses_or_raises_format_error(kind, data):
    text, parse = _FUZZ_CASES[kind]
    mutated = data.draw(_mutated(text))
    try:
        result = parse(mutated)
    except MotFormatError:
        return
    assert isinstance(result, (list, dict))
