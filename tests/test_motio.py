"""MOT file and sidecar parsing/writing, round-trip safety."""
import io
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from attmot import motio, synthgen
from attmot.core import N_ATTRIBUTES, BBox, Detections, FeatureError, MotTable
from attmot.motio import MotFormatError, parse_attr_file, parse_mot_file, write_mot_file
from oracles import Row, by_frame_identity, mot, rows_of


def _feature_text(detections):
    """The sidecar text ``write_feature_file`` streams for ``detections``."""
    buf = io.StringIO()
    motio.write_feature_file(detections, buf)
    return buf.getvalue()


def _group(rows):
    """``{frame: Detections}`` of ``(frame, box, confidence, embedding,
    attributes)`` rows, in frame order and each frame's rows in order; a
    frame has no features when its first row has none."""
    frames = {}
    for frame, *row in sorted(rows, key=lambda r: r[0]):
        frames.setdefault(frame, []).append(row)
    out = {}
    for frame, frame_rows in frames.items():
        boxes, conf, emb, attrs = zip(*frame_rows)
        out[frame] = Detections(frame, np.array(boxes, dtype=float), np.array(conf),
                                None if emb[0] is None else np.array(emb),
                                None if attrs[0] is None else np.array(attrs))
    return out


def _rows(frames):
    """The ``(frame, box, confidence, embedding, attributes)`` rows of a
    ``{frame: Detections}`` mapping, in frame order."""
    out = []
    for d in sorted(frames.values(), key=lambda d: d.frame):
        for i, (box, conf) in enumerate(zip(d.boxes.tolist(), d.confidences.tolist())):
            out.append((d.frame, tuple(box), conf,
                        None if d.embeddings is None else d.embeddings[i],
                        None if d.attrs is None else d.attrs[i]))
    return out


def _with_value(frames, row, field, index, value):
    """``frames`` with ``value`` at ``index`` of feature row ``row`` (counted
    from 0 in frame order) of the ``embeddings`` or ``attrs`` table."""
    out = dict(frames)
    for frame, d in sorted(frames.items()):
        if row < len(d):
            table = getattr(d, field).copy()
            table[row, index] = value
            out[frame] = replace(d, **{field: table})
            return out
        row -= len(d)
    raise IndexError(row)


# The row-at-a-time sidecar writer and parser that the bulk versions
# replaced, kept as their oracle.
def _write_feature_loop(detections):
    buf = io.StringIO()
    dim = None
    for frame, _, _, embedding, attrs in _rows(detections):
        if embedding is None or attrs is None:
            raise ValueError("detection without features cannot be written to a feature file")
        if dim is None:
            dim = len(embedding)
            buf.write(f"{motio.FEAT_HEADER_PREFIX}{dim}\n")
        elif len(embedding) != dim:
            raise ValueError("inconsistent embedding dimension in feature file")
        vals = np.concatenate([embedding, attrs])
        buf.write(str(frame) + "," + ",".join(f"{v:.10g}" for v in vals) + "\n")
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
    bare = _rows(detections)
    if len(body) != len(bare):
        raise MotFormatError(
            f"feature file has {len(body)} rows for {len(bare)} detections"
        )
    out = []
    for (lineno, line), (det_frame, box, conf, _, _) in zip(body, bare):
        fields = line.split(",")
        if len(fields) != 1 + dim + N_ATTRIBUTES:
            raise MotFormatError(
                f"expected {1 + dim + N_ATTRIBUTES} fields at line {lineno}, got {len(fields)}"
            )
        try:
            frame = int(fields[0])
            if frame != det_frame:
                raise ValueError(f"feature row frame {frame} does not match detection"
                                 f" frame {det_frame}")
            vals = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            emb, attr = vals[:dim], np.clip(vals[dim:], 0.0, 1.0)
            # the array checks that the Detections table runs
            if not np.all(np.isfinite(emb)):
                raise ValueError("embedding contains non-finite values")
            if not np.all(np.isfinite(attr)):
                raise ValueError("attribute vector contains non-finite values")
            if attr.min() < 0.0 or attr.max() > 1.0:
                raise ValueError("attribute probabilities must lie in [0, 1]")
            out.append((det_frame, box, conf, emb, attr))
        except ValueError as exc:
            raise MotFormatError(f"{exc} at line {lineno}") from None
    return _group(out)


def _feature_dets(n=6, dim=8):
    rng = np.random.default_rng(2)
    return _group([(1 + i // 2, (i * 10, 5, 4, 9), 0.9, rng.normal(size=dim),
                    rng.uniform(0, 1, 32)) for i in range(n)])


def _gt_entries():
    return mot([Row(frame=1 + i // 3, identity=1 + i % 3, box=BBox(i, 2 * i, 5 + i, 9),
                    visibility=1.0, active=i % 4 != 3) for i in range(6)])


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
    assert list(got) == list(want)
    for a, b in zip(got.values(), want.values()):
        assert a.frame == b.frame
        for x, y in ((a.boxes, b.boxes), (a.confidences, b.confidences),
                     (a.embeddings, b.embeddings), (a.attrs, b.attrs)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y) and x.tobytes() == y.tobytes()


class TestParseMot:
    def test_gt_line(self):
        entries = parse_mot_file(b"1,1,100,100,50,100,1,-1,-1,-1\n", kind="gt")
        assert isinstance(entries, MotTable)
        assert rows_of(entries) == [Row(1, 1, BBox(100, 100, 50, 100), 1.0, True)]

    def test_empty_file(self):
        assert parse_mot_file(b"", kind="gt") == MotTable([], [], [])
        assert parse_mot_file(b"# only a comment\n\n", kind="gt") == MotTable([], [], [])
        assert parse_mot_file(b"", kind="det") == {}

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
        assert list(zip(entries.frames.tolist(), entries.ids.tolist())) == [(1, 9), (2, 1), (2, 2)]

    def test_det_kind_carries_confidence(self):
        dets = parse_mot_file(b"3,-1,10,10,5,5,0.75,-1,-1,-1\n", kind="det")
        assert isinstance(dets[3], Detections)
        assert dets[3].confidences.tolist() == [0.75]
        assert dets[3].boxes.tolist() == [[10.0, 10.0, 5.0, 5.0]]
        assert dets[3].embeddings is None

    def test_nine_field_gt_carries_visibility(self):
        entries = parse_mot_file(b"1,1,0,0,5,5,1,1,0.25\n", kind="gt")
        assert entries.visibility.tolist() == [0.25]

    def test_inactive_flag(self):
        entries = parse_mot_file(b"1,1,0,0,5,5,0,-1,-1,-1\n", kind="gt")
        assert entries.active.tolist() == [False]

    def test_duplicate_identity_in_frame(self):
        text = b"1,1,0,0,5,5,1,-1,-1,-1\n1,2,0,0,5,5,1,-1,-1,-1\n1,2,9,9,5,5,0,-1,-1,-1\n"
        with pytest.raises(MotFormatError, match="duplicate identity 2 in frame 1 at line 3"):
            parse_mot_file(text, kind="gt")

    def test_identity_may_repeat_across_frames(self):
        text = b"1,2,0,0,5,5,1,-1,-1,-1\n2,2,0,0,5,5,1,-1,-1,-1\n"
        assert len(parse_mot_file(text, kind="gt")) == 2
        dets = b"1,-1,0,0,5,5,0.5,-1,-1,-1\n1,-1,9,9,5,5,0.5,-1,-1,-1\n"
        assert len(parse_mot_file(dets, kind="det")[1]) == 2

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


def _attr_line(ident, bits):
    return f"{ident}," + ",".join(str(int(b)) for b in bits)


class TestAttrFile:
    def test_valid(self):
        text = motio.write_attr_file(np.array([_bits(0), _bits()]))
        assert text == "# attmot-attrs v1\n" + _attr_line(1, _bits(0)) + "\n" + _attr_line(
            2, _bits()) + "\n"
        ids, bits = parse_attr_file(text.encode())
        assert ids.dtype == np.int64 and ids.tolist() == [1, 2]
        assert np.array_equal(bits, [_bits(0), _bits()])
        # file order, not identity order
        ids, bits = parse_attr_file(
            f"{_attr_line(9, _bits())}\n{_attr_line(4, _bits(0))}\n".encode())
        assert ids.tolist() == [9, 4] and np.array_equal(bits, [_bits(), _bits(0)])

    def test_header_written(self):
        text = motio.write_attr_file(np.zeros((0, N_ATTRIBUTES)))
        assert text == "# attmot-attrs v1\n"
        ids, bits = parse_attr_file(text.encode())
        assert ids.shape == (0,) and bits.shape == (0, N_ATTRIBUTES)

    def test_wrong_field_count(self):
        with pytest.raises(MotFormatError, match="expected 33 fields"):
            parse_attr_file(b"7," + b",".join(b"0" for _ in range(31)) + b"\n")

    def test_duplicate_identity(self):
        line = _attr_line(7, _bits())
        with pytest.raises(MotFormatError, match="duplicate identity 7 at line 2"):
            parse_attr_file((line + "\n" + line + "\n").encode())

    def test_group_violation_located(self):
        bad = np.zeros(32)
        line = "3," + ",".join(str(int(b)) for b in bad)
        with pytest.raises(MotFormatError, match="line 1"):
            parse_attr_file(line.encode())

    @pytest.mark.parametrize("ident,reason", [
        ("0", "non-positive identity 0"),
        ("-5", "non-positive identity -5"),
        ("1_0", "bad numeric field"),
        ("99999999999999999999", "bad numeric field"),
        ("1.0", "bad numeric field"),
    ])
    def test_identity_follows_mot_rule(self, ident, reason):
        text = f"{_attr_line(1, _bits())}\n{ident},{_attr_line(0, _bits()).split(',', 1)[1]}\n"
        with pytest.raises(MotFormatError, match=f"^{re.escape(reason)}.* at line 2"):
            parse_attr_file(text.encode())

    def test_first_bad_line_wins(self):
        good, group = _attr_line(3, _bits()), _attr_line(4, np.zeros(32))
        for text, match in [
            (f"{group}\n0,1\n", "invalid attribute vector at line 1"),
            (f"{good}\n0,1\n{group}\n", "expected 33 fields at line 2"),
            (f"{good}\n{group}\n-1,{group[2:]}\n",
             "invalid attribute vector at line 2: body-shape"),
            # within a line the identity is checked before the bits
            (f"{good}\n{_attr_line(3, np.zeros(32))}\n", "duplicate identity 3 at line 2"),
            (f"{good}\n{_attr_line(0, np.zeros(32))}\n", "non-positive identity 0 at line 2"),
        ]:
            with pytest.raises(MotFormatError, match=f"^{match}"):
                parse_attr_file(text.encode())

    def test_writer_refuses_row_that_breaks_rule(self):
        bits = np.array([_bits(), _bits(), _bits()])
        bits[1, 7] = 0.5
        with pytest.raises(ValueError, match="^identity 2: .*non-binary"):
            motio.write_attr_file(bits)
        with pytest.raises(ValueError, match=r"got shape \(32,\)"):
            motio.write_attr_file(_bits())

    def test_round_trip_generated_cast(self):
        bundle = synthgen.simulate_sequence(synthgen.WorldConfig(n_identities=6, n_frames=2))
        ids, bits = parse_attr_file(motio.write_attr_file(bundle.attributes).encode())
        assert ids.tolist() == list(range(1, 7))
        assert np.array_equal(bits, bundle.attributes)


class TestRoundTrip:
    def _fixture_entries(self, n=100):
        rng = np.random.default_rng(5)
        out = []
        for i in range(n):
            frame = int(rng.integers(1, 30))
            ident = int(rng.integers(1, 12))
            box = BBox(round(float(rng.uniform(0, 500)), 2), round(float(rng.uniform(0, 300)), 2),
                       round(float(rng.uniform(1, 80)), 2), round(float(rng.uniform(1, 120)), 2))
            out.append(Row(frame=frame, identity=ident, box=box,
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
        text = write_mot_file(mot(entries))
        parsed = parse_mot_file(text.encode(), kind="gt")
        assert rows_of(parsed) == by_frame_identity(entries)
        assert text == _write_mot_loop(entries)

    def test_write_is_canonical(self):
        once = write_mot_file(mot(self._fixture_entries()))
        twice = write_mot_file(parse_mot_file(once.encode(), kind="gt"))
        assert once == twice

    def test_single_track_three_frames(self):
        entries = [Row(frame=f, identity=4, box=BBox(1, 2, 3, 4)) for f in (3, 1, 2)]
        text = write_mot_file(mot(entries))
        frames = [int(line.split(",")[0]) for line in text.strip().splitlines()]
        assert frames == [1, 2, 3]

    def test_empty_result(self):
        assert write_mot_file(MotTable([], [], [])) == ""

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
            entries.append(Row(frame=frame, identity=ident, box=BBox(l, t, w, h)))
        text = write_mot_file(mot(entries))
        assert rows_of(parse_mot_file(text.encode(), kind="gt")) == by_frame_identity(entries)


# The row-at-a-time MOT parser and writer that the table versions replaced,
# kept as their oracle: ``"gt"`` gives sorted ``Row``s, ``"det"`` a
# ``{frame: [(box, confidence)]}`` mapping.
def _parse_mot_loop(source, kind):
    out, dets, seen = [], {}, set()
    for lineno, raw in enumerate(motio._open_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) < 7 or len(fields) > 10:
            raise MotFormatError(f"expected 7-10 fields at line {lineno}, got {len(fields)}")
        try:
            frame = int(fields[0])
            ident = int(fields[1])
            left, top, width, height = (float(x) for x in fields[2:6])
            conf = float(fields[6])
            if width <= 0 or height <= 0:
                raise ValueError("non-positive box")
            if frame < 1:
                raise ValueError("frame index < 1")
            if not math.isfinite(conf):
                raise ValueError(f"non-finite confidence {conf}")
            for name, v in zip(("left", "top", "width", "height"), (left, top, width, height)):
                if not math.isfinite(v):
                    raise ValueError(f"non-finite bbox field {name}={v!r}")
            box = BBox(left, top, width, height)
            if kind == "det":
                dets.setdefault(frame, []).append((box, min(max(conf, 0.0), 1.0)))
                continue
            if ident < 1:
                raise ValueError("non-positive identity")
            if (frame, ident) in seen:
                raise ValueError(f"duplicate identity {ident} in frame {frame}")
            seen.add((frame, ident))
            vis = 1.0
            if len(fields) == 9:
                vis = float(fields[8])
                if not math.isfinite(vis):
                    raise ValueError(f"non-finite visibility {vis}")
                vis = min(max(vis, 0.0), 1.0)
            out.append(Row(frame, ident, box, vis, conf != 0.0))
        except ValueError as exc:
            raise MotFormatError(f"{exc} at line {lineno}") from None
    return dict(sorted(dets.items())) if kind == "det" else by_frame_identity(out)


def _write_mot_loop(rows):
    return "".join(
        f"{g.frame},{g.identity},{motio._fmt_coord(g.box.left)},{motio._fmt_coord(g.box.top)},"
        f"{motio._fmt_coord(g.box.width)},{motio._fmt_coord(g.box.height)},"
        f"{'1' if g.active else '0'},-1,-1,-1\n" for g in by_frame_identity(rows))


def _parsed_rows(result):
    """A ``parse_mot_file`` result in the oracle's form."""
    if isinstance(result, MotTable):
        return rows_of(result)
    return {f: [(BBox(*box), conf) for box, conf in zip(d.boxes.tolist(),
                                                        d.confidences.tolist())]
            for f, d in result.items()}


def _assert_mot_parsers_agree(text, kind):
    """The table parser returns the loop's rows, or raises its error; a row
    with a ``_`` digit separator, which ``int()`` and ``float()`` read, is
    refused instead when no earlier line fails, by the first line that
    holds one."""
    try:
        want = _parse_mot_loop(text, kind)
    except MotFormatError as exc:
        want = exc
    try:
        got = parse_mot_file(text, kind)
    except MotFormatError as exc:
        if str(exc) == str(want):
            return
        lineno = int(re.fullmatch(r"bad numeric field at line (\d+): .*", str(exc)).group(1))
        assert "_" in text.decode("latin-1").splitlines()[lineno - 1]
        if isinstance(want, MotFormatError):
            assert lineno <= int(re.search(r"at line (\d+)", str(want)).group(1))
        return
    assert not isinstance(want, MotFormatError), want
    assert _parsed_rows(got) == want
    if kind == "gt":
        assert write_mot_file(got) == _write_mot_loop(want)


_field = st.sampled_from(["0", "7", "12.5", "-3.25", "1e1", " 4 ", "+2", ".5", "80."])
_conf = st.sampled_from(["1", "0", "0.5", "-0.0", "1.5", "-2", "0e0"])
_vis = st.sampled_from(["1", "0.25", "-0.5", "2", "1e-3"])


@st.composite
def _mot_text(draw):
    """MOT text of valid rows of every accepted width (ignore rows, 9-field
    visibility rows, placeholder tails), comment and blank lines."""
    lines, seen = [], set()
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "comment", "blank"]))
        if kind != "row":
            lines.append("# note" if kind == "comment" else "  ")
            continue
        frame, ident = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        if (frame, ident) in seen:
            continue
        seen.add((frame, ident))
        box = [draw(_field), draw(_field), draw(st.sampled_from(["5", "0.5", "12.25"])),
               draw(st.sampled_from(["9", "1", "3.75"]))]
        tail = draw(st.sampled_from([[], ["-1"], ["1", draw(_vis)], ["-1", "-1", "-1"],
                                     ["x", "", "y"]]))
        lines.append(",".join([str(frame), str(ident), *box, draw(_conf), *tail]))
    return ("\n".join(lines) + "\n").encode("latin-1")


class TestMotTableAgainstLoop:
    @given(_mot_text(), st.sampled_from(["gt", "det"]))
    @settings(max_examples=150)
    def test_valid_text_equals_loop(self, text, kind):
        _assert_mot_parsers_agree(text, kind)

    @given(st.data(), st.sampled_from(["gt", "det"]))
    @settings(max_examples=200)
    def test_malformed_text_names_the_loops_line(self, data, kind):
        text = data.draw(_mot_text().filter(lambda t: t.strip()))
        _assert_mot_parsers_agree(data.draw(_mutated(text.decode("latin-1"))), kind)

    @pytest.mark.parametrize("line,message", [
        ("1,1,0,0,5,5", "expected 7-10 fields at line 2, got 6"),
        ("1,1,0,0,5,5,1,-1,-1,-1,-1", "expected 7-10 fields at line 2, got 11"),
        ("1.0,1,0,0,5,5,1", "invalid literal for int() with base 10: '1.0' at line 2"),
        ("1,2,0,0,5,x,1", "could not convert string to float: 'x' at line 2"),
        ("1,2,0,0,0,5,1", "non-positive box at line 2"),
        ("0,2,0,0,5,5,1", "frame index < 1 at line 2"),
        ("1,2,0,0,5,5,nan", "non-finite confidence nan at line 2"),
        ("1,2,0,inf,5,5,1", "non-finite bbox field top=inf at line 2"),
        ("1,0,0,0,5,5,1", "non-positive identity at line 2"),
        ("1,1,0,0,5,5,1", "duplicate identity 1 in frame 1 at line 2"),
        ("1,2,0,0,5,5,1,1,-inf", "non-finite visibility -inf at line 2"),
        # A row that breaks several rules is refused by the first of them.
        ("0,2,0,0,0,5,nan", "non-positive box at line 2"),
        ("0,0,nan,0,5,5,nan", "frame index < 1 at line 2"),
        ("1,0,nan,0,5,5,nan", "non-finite confidence nan at line 2"),
        ("1,0,nan,0,5,5,1,1,nan", "non-finite bbox field left=nan at line 2"),
        ("1,0,0,0,5,5,1,1,nan", "non-positive identity at line 2"),
        ("1,1,0,0,5,5,1,1,nan", "duplicate identity 1 in frame 1 at line 2"),
        ("1,1_0,0,0,0,5,1", "non-positive box at line 2"),
        ("1,2,0,0,5,5,1,1,x", "could not convert string to float: 'x' at line 2"),
        ("1,2,0,0,5,5,1,1,", "could not convert string to float: '' at line 2"),
        ("1,1_0,0,0,5,5,1", "bad numeric field at line 2: could not convert string '1_0'"),
        ("1,2,0,0,5,5,1,1,0_5", "bad numeric field at line 2: could not convert string '0_5'"),
        ("1,99999999999999999999,0,0,5,5,1", "bad numeric field at line 2"),
    ])
    def test_malformed_line_message(self, line, message):
        text = f"1,1,0,0,5,5,1\n{line}\n3,1,0,0,5,5,1\n".encode()
        with pytest.raises(MotFormatError, match="^" + re.escape(message)):
            parse_mot_file(text, kind="gt")

    @pytest.mark.parametrize("text,message", [
        (b"0,-1,0,0,5,5,1\n1,-1,0,0,5,5,1\n", "frame index < 1 at line 1"),
        (b"0,-1,0,0,5,5,1\n", "frame index < 1 at line 1"),
        (b"1,-1,0,0,5,5,1\n0,-1,0,0,5,5,1\n", "frame index < 1 at line 2"),
        (b"1,-1,0,0,5,5,1\n-1,-1,0,0,5,5,1\n", "frame index < 1 at line 2"),
        (b"1,-1,0,0,0,5,1\n0,-1,0,0,5,5,1\n", "non-positive box at line 1"),
        (b"0,-1,0,0,0,5,1\n", "non-positive box at line 1"),
    ])
    def test_malformed_det_line_message(self, text, message):
        with pytest.raises(MotFormatError, match="^" + re.escape(message) + "$"):
            parse_mot_file(text, kind="det")

    def test_underscore_refusal_waits_for_earlier_rows(self):
        text = b"1,1,0,0,5,5,1\n1,1,0,0,5,5,1\n1,2_0,0,0,5,5,1\n"
        with pytest.raises(MotFormatError, match="^duplicate identity 1 in frame 1 at line 2$"):
            parse_mot_file(text, kind="gt")
        with pytest.raises(MotFormatError, match="^non-positive box at line 1$"):
            parse_mot_file(b"1,2_0,0,0,0,5,1\n", kind="gt")

    def test_underscore_in_an_unread_field_is_kept(self):
        rows = parse_mot_file(b"1,1,0,0,5,5,1,1_0,-1,-1\n1,2,0,0,5,5,1,1_0,0.5\n", kind="gt")
        assert rows.visibility.tolist() == [1.0, 0.5]

    def test_mixed_widths_keep_file_order_within_a_det_frame(self):
        text = b"2,-1,9,9,5,5,0.5\n1,-1,0,0,5,5,2,-1,-1,-1\n2,-1,1,1,5,5,-1,1,0.5\n"
        dets = parse_mot_file(text, kind="det")
        assert list(dets) == [1, 2]
        assert dets[2].boxes.tolist() == [[9, 9, 5, 5], [1, 1, 5, 5]]
        assert dets[1].confidences.tolist() == [1.0] and dets[2].confidences.tolist() == [0.5, 0.0]


class TestFeatureSidecar:
    def _dets(self, n=6, dim=8):
        return _feature_dets(n, dim)

    def test_round_trip(self):
        dets = self._dets()
        det_text = motio.write_det_file(dets)
        feat_text = _feature_text(dets)
        bare = parse_mot_file(det_text.encode(), kind="det")
        joined = motio.parse_feature_file(feat_text.encode(), bare)
        assert list(joined) == list(dets)
        for a, b in zip(dets.values(), joined.values()):
            assert a.frame == b.frame
            np.testing.assert_array_equal(a.boxes, b.boxes)
            np.testing.assert_allclose(a.embeddings, b.embeddings, rtol=1e-9)
            np.testing.assert_allclose(a.attrs, b.attrs, rtol=1e-9)

    def test_row_count_mismatch(self):
        dets = self._dets()
        feat_text = _feature_text(dets)
        with pytest.raises(MotFormatError, match="rows for"):
            motio.parse_feature_file(feat_text.encode(),
                                     {f: d for f, d in dets.items() if f != 3})

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
        lines = _feature_text(dets).splitlines()
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
        dets = _with_value(self._dets(), 4, "embeddings", 1, value)
        with pytest.raises(ValueError, match=r"^feature row 5 \(frame 3\) .* inf$"):
            _feature_text(dets)

    @pytest.mark.parametrize("field,index,value,reason", [
        ("embedding", 1, np.nan, "embedding contains non-finite values"),
        ("embedding", 0, -np.inf, "embedding contains non-finite values"),
        ("attr_obs", 3, -0.25, r"attribute probabilities must lie in \[0, 1\]"),
        ("attr_obs", 3, np.nan, "attribute vector contains non-finite values"),
        ("attr_obs", slice(0, 31), None, r"expected 32 attribute values, got shape \(31,\)"),
    ])
    def test_writer_rejects_bad_row_by_number(self, field, index, value, reason):
        # the writer takes only checked tables: feature row 5, the first row
        # of frame 3, is refused when that frame's table is built
        dets = self._dets()
        table = {"embedding": "embeddings", "attr_obs": "attrs"}[field]
        with pytest.raises(FeatureError, match=rf"^frame 3, detection 0: {reason}"):
            if value is None:
                dets[3] = replace(dets[3], attrs=dets[3].attrs[:, index])
            else:
                dets = _with_value(dets, 4, table, index, value)
            _feature_text(dets)

    def test_writer_names_rows_past_the_first_block(self):
        dets = _feature_dets(600, 4)
        with pytest.raises(ValueError, match=r"^feature row 401 \(frame 201\) .* inf$"):
            _feature_text(_with_value(dets, 400, "embeddings", 2, 1.7976931346e308))
        with pytest.raises(FeatureError, match=r"^frame 201, detection 0: embedding"):
            _with_value(dets, 400, "embeddings", 2, np.inf)
        with pytest.raises(FeatureError, match=r"^frame 201, detection 0: expected 32"):
            replace(dets[201], attrs=dets[201].attrs[:, :5])

    def test_writer_memory_does_not_grow_with_rows(self):
        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        def peak(dets):
            tracemalloc.start()
            try:
                motio.write_feature_file(dets, Discard())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = _feature_dets(1024, 16), _feature_dets(4096, 16)
        assert peak(large) < 1.5 * peak(small)

    def test_largest_finite_text_is_written(self):
        dets = _with_value(self._dets(1), 0, "embeddings", 0, 1.7976931344e308)
        text = _feature_text(dets)
        assert ",1.797693134e+308," in text
        assert motio.parse_feature_file(text.encode(), dets)[1].embeddings[0, 0] == 1.797693134e308

    def test_missing_header(self):
        with pytest.raises(MotFormatError, match="header"):
            motio.parse_feature_file(b"1,0.5,0.5\n", self._dets(1))

    def test_uniform_wrong_width_names_first_row(self):
        # Every row converts, but the header promises one column fewer.
        dets = self._dets()
        text = _feature_text(dets).replace("dim=8", "dim=7", 1)
        with pytest.raises(MotFormatError, match="expected 40 fields at line 2, got 41"):
            motio.parse_feature_file(text.encode(), dets)

    def test_digit_separator_stricter_than_float(self):
        # float("1_0") is 10.0, so the row-at-a-time parser took this row;
        # the bulk conversion rejects it.
        dets = self._dets(1)
        lines = _feature_text(dets).splitlines()
        fields = lines[1].split(",")
        fields[1] = "1_0"
        text = ("\n".join([lines[0], ",".join(fields)]) + "\n").encode()
        assert _parse_feature_loop(text, dets)[1].embeddings[0, 0] == 10.0
        with pytest.raises(MotFormatError, match="bad numeric field at line 2"):
            motio.parse_feature_file(text, dets)

    def test_empty_sidecar(self):
        text = _feature_text({})
        assert text == _write_feature_loop({})
        assert motio.parse_feature_file(text.encode(), {}) == {}

    def test_header_dimension_read_alone(self, tmp_path):
        path = tmp_path / "feats.csv"
        path.write_text("\n" + _feature_text(self._dets(dim=8)))
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
    """Strategy for ``{frame: Detections}`` with embeddings and attributes
    drawn as arrays of ``dtype``."""
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
        return _group([(f, (1, 2, 3, 4), 0.5, draw(hnp.arrays(dtype, dim, elements=emb_elems)),
                         draw(hnp.arrays(dtype, N_ATTRIBUTES, elements=attr_elems)))
                        for f in frames])

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
                _feature_text(dets)
        else:
            assert _feature_text(dets) == want

    @given(st.one_of(_feature_rows(np.float64), _feature_rows(np.float32)))
    @settings(max_examples=60)
    def test_parser_equals_loop_on_written_text(self, dets):
        try:
            text = _feature_text(dets).encode()
        except ValueError:
            # the writer refuses a row the parsers would reject as inf
            assert _reads_inf(_write_feature_loop(dets))
            return
        bare = {f: replace(d, embeddings=None, attrs=None) for f, d in dets.items()}
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
        bare = _group([(1 + i, (1, 2, 3, 4), 0.5, None, None) for i in range(n)])
        _assert_parsers_agree(text, bare)


class TestErrorsNameFile:
    @pytest.mark.parametrize("name,text,parse", [
        ("gt.txt", "1,1,0,0,5,5,1,-1,-1,-1\n1,1,0,0,5,5,1,-1,-1,-1\n",
         lambda p: parse_mot_file(p, kind="gt")),
        ("det.txt", "1,-1,0,0,5,5,0.5,-1,-1,-1\n1,-1,0,0,-5,5,0.5,-1,-1,-1\n",
         lambda p: parse_mot_file(str(p), kind="det")),
        ("attrs.txt", "# attmot-attrs v1\n7," + ",".join("0" * 31) + "\n", parse_attr_file),
        ("feats.csv", _feature_text(_feature_dets(2)).replace(",", ",,", 1),
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
        (_feature_text(_feature_dets(2)).encode().replace(b"\n", b"\n\xe9", 1),
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


_FUZZ_TOKENS = ["abc", "nan", "0", "1_0", "#", "\xe9", "1\xe9"]


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
_FUZZ_ATTRS = np.array([_bits(), _bits(0)])
_FUZZ_CASES = {
    "det": (motio.write_det_file(_FUZZ_DETS), lambda b: parse_mot_file(b, kind="det")),
    "gt": (write_mot_file(_gt_entries()), lambda b: parse_mot_file(b, kind="gt")),
    "attrs": (motio.write_attr_file(_FUZZ_ATTRS), parse_attr_file),
    "feats": (_feature_text(_FUZZ_DETS),
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
    assert isinstance(result, (MotTable, dict, tuple))
