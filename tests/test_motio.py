"""MOT file and sidecar parsing/writing, round-trip safety."""
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attmot import motio
from attmot.core import AttributeVector, BBox, Detection, GtEntry
from attmot.motio import MotFormatError, parse_attr_file, parse_mot_file, write_mot_file


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
        rng = np.random.default_rng(2)
        out = []
        for i in range(n):
            out.append(Detection(
                frame=1 + i // 2, box=BBox(i * 10, 5, 4, 9), confidence=0.9,
                embedding=rng.normal(size=dim), attr_obs=rng.uniform(0, 1, 32)))
        return out

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
    ])
    def test_malformed_row_names_line(self, lineno, field, value):
        dets = self._dets()
        lines = motio.write_feature_file(dets).splitlines()
        if field is None:
            lines[lineno - 1] = value
        else:
            fields = lines[lineno - 1].split(",")
            fields[field] = value
            lines[lineno - 1] = ",".join(fields)
        with pytest.raises(MotFormatError, match=f"at line {lineno}"):
            motio.parse_feature_file(("\n".join(lines) + "\n").encode(), dets)

    def test_missing_header(self):
        with pytest.raises(MotFormatError, match="header"):
            motio.parse_feature_file(b"1,0.5,0.5\n", self._dets(1))
