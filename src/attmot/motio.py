"""MOTChallenge-format file reading/writing plus the attribute sidecar.

File formats
------------
Detection / ground-truth / result files are CSV lines::

    frame,id,left,top,width,height,conf,x,y,z

with ``x,y,z`` as ``-1`` placeholders.  For ground-truth files the ``conf``
column is the MOTChallenge active flag (0 means the entry is an ignore
region).  Rows of 7 to 10 fields may be mixed; a nine-field ground-truth
row in the MOT17 convention (``...,conf,class,visibility``) carries its
visibility, and every other row has visibility 1.0.  Fields past the
seventh are not read otherwise.  Frame and id are read as ``int()`` reads
them and the other fields as ``float()`` does, except that ``_`` digit
separators and integers beyond int64 are refused, as in the feature
sidecar.

The attribute sidecar holds one line per identity, ``id,b0,...,b31``, after
a one-line header ``# attmot-attrs v1``, and is read and written as an
``(n, 32)`` table.  Its identities are read as MOT identities are, and
must be >= 1 and appear once.

The feature sidecar aligns with the detection file line-for-line (in
frame order): ``frame,<embedding floats>,<32 attribute floats>`` after a
header ``# attmot-feats v1 dim=<d>``; the floats are written ``%.10g``.
``write_feature_file`` streams it to an open text stream a block of whole
frames at a time, so writing a sidecar holds one block, never the whole
text.

When ``source`` is a path, parse errors name the file as well as the line.

Ground truth and tracker results are read and written as one
``core.MotTable`` per file, and detections as ``{frame: core.Detections}``
mappings.  ``parse_mot_file`` converts all rows in one ``np.loadtxt``
pass and checks each row rule once, as one mask over the rows, so the
first bad row names its line; only a file that fails to convert is read
line by line, up to the row that fails.  The writers
take only checked tables.  ``parse_feature_file`` checks the sidecar's
embedding and attribute columns once, as one table, and names the first
bad line: a non-finite embedding value, or attributes that are not 32
values in [0, 1], are rejected.
"""
from __future__ import annotations

import functools
import io
import math
import os
from dataclasses import replace
from typing import Iterable, TextIO

import numpy as np

from .core import (
    N_ATTRIBUTES,
    Detections,
    MotTable,
    binary_attribute_error,
    feature_row_error,
)

ATTR_HEADER = "# attmot-attrs v1"
FEAT_HEADER_PREFIX = "# attmot-feats v1 dim="
_WRITE_BLOCK = 256  # feature rows, in whole frames, formatted and written at once


class MotFormatError(ValueError):
    """Malformed MOT or sidecar file; message carries the line number, and
    the file name when the parser was given a path."""


def _open_lines(source) -> Iterable[str]:
    """Lines of a path, bytes or file-like source; a line with a non-ASCII
    byte or character raises MotFormatError naming the line."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii", errors="surrogateescape") as fh:
            yield from _ascii_lines(fh)
    elif isinstance(source, bytes):
        yield from _ascii_lines(io.StringIO(source.decode("ascii", errors="surrogateescape")))
    else:  # file-like
        yield from _ascii_lines(line.decode("ascii", errors="surrogateescape")
                                if isinstance(line, bytes) else line for line in source)


def _ascii_lines(lines: Iterable[str]) -> Iterable[str]:
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii():
            raise MotFormatError(f"non-ASCII character at line {lineno}")
        yield line


def _names_file(parse):
    """Prefix the parser's MotFormatErrors with the file name of a path source."""

    @functools.wraps(parse)
    def wrapper(source, *args, **kwargs):
        try:
            return parse(source, *args, **kwargs)
        except MotFormatError as exc:
            if not isinstance(source, (str, os.PathLike)):
                raise
            raise MotFormatError(f"{os.fspath(source)}: {exc}") from None

    return wrapper


def _fmt_coord(v: float) -> str:
    """Render a coordinate with up to 2 fractional digits, no trailing zeros."""
    s = f"{v:.2f}".rstrip("0").rstrip(".")
    return s if s not in ("-0", "") else "0"


# The first seven MOT columns of a row, as one record of the conversion.
_MOT_ROW = np.dtype([("frame", np.int64), ("id", np.int64), ("box", np.float64, (4,)),
                     ("conf", np.float64)])
_INT64 = np.iinfo(np.int64)
_ATTR_ROW = np.dtype([("id", np.int64), ("bits", np.float64, (N_ATTRIBUTES,))])
_BOX_FIELDS = ("left", "top", "width", "height")


def _loadtxt(lines: list[str], dtype, usecols):
    return np.loadtxt(lines, delimiter=",", dtype=dtype, usecols=usecols, comments=None,
                      ndmin=1)


def _mot_columns(body: list[tuple[int, str]], kind: str):
    """``(rows, visibility)`` of the MOT rows in file order, converted in
    one ``np.loadtxt`` pass, or None when a row has the wrong number of
    fields or fails to convert.

    ``rows`` is a ``_MOT_ROW`` record array.  Frame and identity convert
    as int64, which refuses ``1.0`` as ``int()`` does; the other fields
    convert like ``float()``, bit for bit.  Both refuse ``_`` digit
    separators.  Fields past the seventh are not read, except the
    visibility of a nine-field ``"gt"`` row; every other row has
    visibility 1.0.
    """
    lines = [line for _, line in body]
    widths = np.array([line.count(",") for line in lines], dtype=np.int64) + 1
    if len(lines) and not (7 <= widths.min() and widths.max() <= 10):
        return None
    try:
        rows = _loadtxt(lines, _MOT_ROW, range(7)) if lines else np.zeros(0, _MOT_ROW)
        vis = np.ones(len(lines))
        nine = np.flatnonzero(widths == 9) if kind == "gt" else []
        if len(nine):
            vis[nine] = _loadtxt([lines[i] for i in nine.tolist()], np.float64, 8)
    except ValueError:
        return None
    return rows, vis


def _scan_columns(body: list[tuple[int, str]], kind: str):
    """``(rows, visibility, error)`` for a file that ``_mot_columns``
    refuses: the rows read one at a time, as ``int()`` and ``float()``
    read them, up to the first that fails to convert, and the error naming
    that row's line (None if every row converts).

    A row whose first seven fields ``int()`` and ``float()`` read is kept
    when only its visibility fails to convert or only ``np.loadtxt``
    refuses it (a ``_`` digit separator), so that its rules are checked
    before that error counts.  An integer beyond int64 fails at once.
    """
    rows, vis = [], []

    def stop(error):
        return np.array(rows, dtype=_MOT_ROW), np.array(vis, dtype=np.float64), error

    for lineno, line in body:
        fields = line.split(",")
        if not 7 <= len(fields) <= 10:
            return stop(MotFormatError(f"expected 7-10 fields at line {lineno}, got {len(fields)}"))
        try:
            frame, ident = int(fields[0]), int(fields[1])
            box, conf = [float(x) for x in fields[2:6]], float(fields[6])
        except ValueError as exc:
            return stop(MotFormatError(f"{exc} at line {lineno}"))
        nine = kind == "gt" and len(fields) == 9
        try:
            _loadtxt([line], _MOT_ROW, range(7))
            if nine:
                _loadtxt([line], np.float64, 8)
            strict = None
        except ValueError as exc:
            strict = MotFormatError(f"bad numeric field at line {lineno}: {exc}")
        if not all(_INT64.min <= v <= _INT64.max for v in (frame, ident)):
            return stop(strict)
        rows.append((frame, ident, box, conf))
        try:
            vis.append(float(fields[8]) if nine else 1.0)
        except ValueError as exc:
            vis.append(1.0)
            return stop(MotFormatError(f"{exc} at line {lineno}"))
        if strict:
            return stop(strict)
    return stop(None)


def _broken_rule(rows: np.ndarray, vis: np.ndarray, kind: str) -> tuple[int, str] | None:
    """``(index, reason)`` of the first row that breaks a MOT row rule, or None.

    Each rule is one mask over the rows, in the order a row is checked:
    a positive box size, frame >= 1, a finite confidence and finite box
    fields; a ``"gt"`` row also needs identity >= 1, an identity not seen
    before in its frame and a finite visibility.  The reason is the first
    rule the first bad row breaks.
    """
    frames, ids, boxes, conf = rows["frame"], rows["id"], rows["box"], rows["conf"]
    finite = np.isfinite(boxes)
    rules = [
        ((boxes[:, 2] <= 0) | (boxes[:, 3] <= 0), lambda r: "non-positive box"),
        (frames < 1, lambda r: "frame index < 1"),
        (~np.isfinite(conf), lambda r: f"non-finite confidence {conf[r].item()}"),
        (~finite.all(axis=1), lambda r: "non-finite bbox field {}={!r}".format(
            _BOX_FIELDS[int(np.argmin(finite[r]))], boxes[r, np.argmin(finite[r])].item())),
    ]
    if kind == "gt":
        # lexsort is stable, so the later of two rows with one key is the repeat.
        order = np.lexsort((ids, frames))
        repeat = np.zeros(len(rows), dtype=bool)
        repeat[order[1:]] = ((frames[order[1:]] == frames[order[:-1]])
                             & (ids[order[1:]] == ids[order[:-1]]))
        rules += [
            (ids < 1, lambda r: "non-positive identity"),
            (repeat, lambda r: f"duplicate identity {ids[r]} in frame {frames[r]}"),
            (~np.isfinite(vis), lambda r: f"non-finite visibility {vis[r].item()}"),
        ]
    broken = np.array([mask for mask, _ in rules])
    bad = broken.any(axis=0)
    if not bad.any():
        return None
    r = int(np.argmax(bad))
    return r, rules[int(np.argmax(broken[:, r]))][1](r)


@_names_file
def parse_mot_file(source, kind: str):
    """Parse a MOT-format file.

    ``kind`` is ``"det"`` (rows become a ``{frame: Detections}`` mapping
    in frame order, without features, each frame's rows in file order) or
    ``"gt"`` (rows become one ``MotTable`` in (frame, identity) order; also
    used for result files).  Any malformed line, or a ``"gt"`` identity
    repeated within one frame, raises MotFormatError naming the line.
    """
    if kind not in ("det", "gt"):
        raise ValueError(f"unknown kind {kind!r}")
    body, failure = [], None
    try:
        for n, raw in enumerate(_open_lines(source), start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                body.append((n, line))
    except MotFormatError as exc:
        failure = exc   # a non-ASCII line: a row before it may fail first
    columns = _mot_columns(body, kind)
    if columns is None:
        rows, vis, unconverted = _scan_columns(body, kind)
        failure = unconverted or failure
    else:
        rows, vis = columns
    broken = _broken_rule(rows, vis, kind)
    if broken is not None:
        r, reason = broken
        raise MotFormatError(f"{reason} at line {body[r][0]}")
    if failure is not None:
        raise failure
    frames, boxes = rows["frame"], np.ascontiguousarray(rows["box"])
    if kind == "gt":
        return MotTable(frames, rows["id"], boxes, rows["conf"] != 0.0, np.clip(vis, 0.0, 1.0))
    order = np.argsort(frames, kind="stable")
    frames, boxes, conf = frames[order], boxes[order], np.clip(rows["conf"][order], 0.0, 1.0)
    bounds = np.flatnonzero(np.diff(frames, prepend=frames[:1] - 1,
                                    append=frames[-1:] + 1)).tolist()
    return {frames[lo].item(): Detections(frames[lo].item(), boxes[lo:hi], conf[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])}


@_names_file
def parse_attr_file(source) -> tuple[np.ndarray, np.ndarray]:
    """Parse the attribute sidecar into ``(ids (n,) int64, bits (n, 32))``
    in file order.

    An identity is read as a MOT identity is, must be >= 1 and may appear
    once; the bits must pass ``core.binary_attribute_error``.  The first
    bad line raises MotFormatError naming it.
    """
    linenos, rows, failure = [], [], None
    try:
        for lineno, raw in enumerate(_open_lines(source), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            n_fields = line.count(",") + 1
            if n_fields != 1 + N_ATTRIBUTES:
                raise MotFormatError(
                    f"expected {1 + N_ATTRIBUTES} fields at line {lineno}, got {n_fields}")
            try:
                rows.append(_loadtxt([line], _ATTR_ROW, None)[0])
            except ValueError as exc:
                raise MotFormatError(f"bad numeric field at line {lineno}: {exc}") from None
            linenos.append(lineno)
    except MotFormatError as exc:
        failure = exc   # a row before the failing line may break a rule first
    table = np.array(rows, dtype=_ATTR_ROW)
    ids, bits = np.ascontiguousarray(table["id"]), np.ascontiguousarray(table["bits"])
    bad_id = np.ones(len(ids), dtype=bool)
    bad_id[np.unique(ids, return_index=True)[1]] = False    # repeats
    bad_id |= ids < 1
    r, reason = binary_attribute_error(bits) or (len(ids), None)
    if bad_id[:r + 1].any():
        r = int(np.argmax(bad_id))
        rule = "non-positive" if ids[r] < 1 else "duplicate"
        raise MotFormatError(f"{rule} identity {ids[r]} at line {linenos[r]}")
    if reason is not None:
        raise MotFormatError(f"invalid attribute vector at line {linenos[r]}: {reason}")
    if failure is not None:
        raise failure
    return ids, bits


def write_mot_file(table: MotTable) -> str:
    """Serialize a ``MotTable`` to the 10-field MOT format, in its
    (frame, identity) order; returns the text."""
    fmt = _fmt_coord
    return "".join(
        f"{frame},{ident},{fmt(left)},{fmt(top)},{fmt(width)},{fmt(height)},"
        f"{'1' if active else '0'},-1,-1,-1\n"
        for frame, ident, (left, top, width, height), active in zip(
            table.frames.tolist(), table.ids.tolist(), table.boxes.tolist(),
            table.active.tolist()))


def write_det_file(frames: dict[int, Detections]) -> str:
    """Serialize a ``{frame: Detections}`` mapping (id column -1) to the
    10-field MOT format, in frame order."""
    buf = io.StringIO()
    for dets in (frames[frame] for frame in sorted(frames)):
        for (left, top, width, height), conf in zip(dets.boxes.tolist(),
                                                    dets.confidences.tolist()):
            buf.write(
                f"{dets.frame},-1,{_fmt_coord(left)},{_fmt_coord(top)},"
                f"{_fmt_coord(width)},{_fmt_coord(height)},{conf:.2f},-1,-1,-1\n"
            )
    return buf.getvalue()


def write_attr_file(attributes: np.ndarray) -> str:
    """Serialize an ``(n, 32)`` ground-truth attribute table, identity
    ``i + 1`` in row ``i``, as the sidecar format.  A row that breaks the
    attribute rule (``core.binary_attribute_error``) raises ValueError
    naming its identity."""
    bad = binary_attribute_error(attributes)
    if bad is not None:
        raise ValueError(f"identity {bad[0] + 1}: {bad[1]}")
    rows = np.asarray(attributes).astype(np.int64).tolist()
    return ATTR_HEADER + "\n" + "".join(
        f"{ident},{','.join(map(str, bits))}\n" for ident, bits in enumerate(rows, start=1))


def write_feature_file(frames: dict[int, Detections], out: TextIO) -> None:
    """Write the features of a ``{frame: Detections}`` mapping, aligned with
    the det file order, to the text stream ``out``.

    The header goes out first, then the rows in blocks of whole frames of
    at least ``_WRITE_BLOCK`` rows, so memory stays at one block's text
    whatever the number of rows.  Rows are counted from 1 after the
    header.  A value whose ``%.10g`` text reads back as inf raises
    ValueError naming its row and frame; the blocks before it have been
    written by then, so a caller writing a file removes it on error.
    """
    if any(len(d) and (d.embeddings is None or d.attrs is None) for d in frames.values()):
        raise ValueError("detection without features cannot be written to a feature file")
    dims = {d.embeddings.shape[1] for d in frames.values() if len(d)}
    if len(dims) > 1:
        raise ValueError("inconsistent embedding dimension in feature file")
    dim = dims.pop() if dims else 0

    out.write(f"{FEAT_HEADER_PREFIX}{dim}\n")
    row_fmt = ",".join(["%.10g"] * (dim + N_ATTRIBUTES)) + "\n"
    lines, row = [], 0
    for dets in (frames[frame] for frame in sorted(frames) if len(frames[frame])):
        # Each row is formatted alone, since one .tolist() of many rows would
        # hold every value as a Python float at once.
        for values in np.hstack((dets.embeddings, dets.attrs)):
            row += 1
            text = row_fmt % tuple(values.tolist())
            # %.10g rounds values near the float64 maximum up to
            # 1.797693135e+308, which reads back as inf.  "+" only appears in
            # exponents of 10 and up, so the precise check runs on rows with
            # huge values only.
            if "+" in text and math.inf in map(abs, map(float, text.split(","))):
                raise ValueError(f"feature row {row} (frame {dets.frame}) has a value that"
                                 " %.10g writes as inf")
            lines.append(f"{dets.frame},{text}")
        if len(lines) >= _WRITE_BLOCK:
            out.write("".join(lines))
            lines.clear()
    out.write("".join(lines))


def _parse_feature_table(body: list[tuple[int, str]], width: int) -> np.ndarray:
    """Convert the sidecar rows to one ``(rows, width)`` float64 table.

    ``np.loadtxt`` converts every field like ``float()`` (bit for bit) but
    rejects ``_`` digit separators.  When it fails, or the width is wrong,
    one scan over the rows names the first bad line.
    """
    if not body:
        return np.empty((0, width))
    try:
        table = np.loadtxt([line for _, line in body], delimiter=",", dtype=np.float64,
                           ndmin=2, comments=None)
        if table.shape[1] == width:
            return table
    except ValueError:
        pass
    for lineno, line in body:
        n_fields = line.count(",") + 1
        if n_fields != width:
            raise MotFormatError(f"expected {width} fields at line {lineno}, got {n_fields}")
        try:
            np.loadtxt([line], delimiter=",", dtype=np.float64, comments=None)
        except ValueError as exc:
            raise MotFormatError(f"bad numeric field at line {lineno}: {exc}") from None
    raise MotFormatError("feature rows could not be converted")


def _header_dim(lines: list[tuple[int, str]]) -> int:
    """Embedding dimension of a feature sidecar from its first non-blank
    ``(line number, text)``, if any."""
    if not lines or not lines[0][1].startswith(FEAT_HEADER_PREFIX):
        raise MotFormatError("feature file missing header")
    header_no, header = lines[0]
    try:
        dim = int(header[len(FEAT_HEADER_PREFIX):])
    except ValueError as exc:
        raise MotFormatError(f"bad feature header at line {header_no}: {exc}") from None
    if dim < 0:
        raise MotFormatError(f"negative embedding dimension at line {header_no}")
    return dim


@_names_file
def parse_feature_dim(source) -> int:
    """Embedding dimension of a feature sidecar, read from its header alone."""
    for lineno, line in enumerate(_open_lines(source), start=1):
        if line.strip():
            return _header_dim([(lineno, line.strip())])
    return _header_dim([])


@_names_file
def parse_feature_file(source, detections: dict[int, Detections]) -> dict[int, Detections]:
    """Join a feature sidecar onto the ``{frame: Detections}`` mapping
    parsed from the det file.

    The sidecar must have exactly one row per detection, in frame order.
    Returns new batches whose features view the sidecar's one table.
    """
    batches = [detections[frame] for frame in sorted(detections)]
    n_rows = sum(map(len, batches))
    lines = [(n, ln.strip()) for n, ln in enumerate(_open_lines(source), start=1)]
    lines = [(n, ln) for n, ln in lines if ln]
    dim = _header_dim(lines[:1])
    body = lines[1:]
    if len(body) != n_rows:
        raise MotFormatError(f"feature file has {len(body)} rows for {n_rows} detections")
    table = _parse_feature_table(body, 1 + dim + N_ATTRIBUTES)
    emb = table[:, 1:1 + dim]
    attrs = np.clip(table[:, 1 + dim:], 0.0, 1.0)
    # A row's frame is checked before its arrays, so the first bad line wins.
    bad_row, reason = feature_row_error(emb, attrs) or (n_rows, None)
    want = (d.frame for d in batches for _ in range(len(d)))
    for i, ((lineno, line), expected) in enumerate(zip(body, want)):
        try:
            # int() of the text, not of the float column, so "1.5" or "1.0" fails.
            frame = int(line[:line.index(",")])
            if frame != expected:
                raise ValueError(f"feature row frame {frame} does not match detection"
                                 f" frame {expected}")
            if i == bad_row:
                raise ValueError(reason)
        except ValueError as exc:
            raise MotFormatError(f"{exc} at line {lineno}") from None
    ends = np.cumsum([len(d) for d in batches]).tolist()
    return {d.frame: replace(d, embeddings=emb[hi - len(d):hi], attrs=attrs[hi - len(d):hi])
            for d, hi in zip(batches, ends)}
