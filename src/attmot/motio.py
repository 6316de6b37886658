"""MOTChallenge-format file reading/writing plus the attribute sidecar.

File formats
------------
Detection / ground-truth / result files are CSV lines::

    frame,id,left,top,width,height,conf,x,y,z

with ``x,y,z`` as ``-1`` placeholders.  For ground-truth files the ``conf``
column is the MOTChallenge active flag (0 means the entry is an ignore
region).  Nine-column ground-truth files in the MOT17 convention
(``...,conf,class,visibility``) are also accepted; otherwise visibility
defaults to 1.0.

The attribute sidecar holds one line per identity, ``id,b0,...,b31``, after
a one-line header ``# attmot-attrs v1``.

The feature sidecar aligns with the detection file line-for-line:
``frame,<embedding floats>,<32 attribute floats>`` after a header
``# attmot-feats v1 dim=<d>``; the floats are written ``%.10g``.

When ``source`` is a path, parse errors name the file as well as the line.

Detection arrays are checked as whole tables (``core.check_feature_rows``):
``parse_feature_file`` checks the sidecar's embedding and attribute columns
once and names the first bad line, and ``write_feature_file`` checks the
rows it writes and names the first bad row.  A non-finite embedding value,
or attributes that are not 32 values in [0, 1], are rejected.
"""
from __future__ import annotations

import functools
import io
import math
import os
from typing import Iterable

import numpy as np

from .core import (
    N_ATTRIBUTES,
    AttributeVector,
    BBox,
    Detection,
    GtEntry,
    check_feature_rows,
    feature_row_error,
    stack_attribute_rows,
)

ATTR_HEADER = "# attmot-attrs v1"
FEAT_HEADER_PREFIX = "# attmot-feats v1 dim="
_WRITE_BLOCK = 256  # feature rows stacked and checked at once


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


@_names_file
def parse_mot_file(source, kind: str):
    """Parse a MOT-format file.

    ``kind`` is ``"det"`` (rows become Detections without features) or
    ``"gt"`` (rows become GtEntries; also used for result files).  Entries
    are returned sorted by frame then id/appearance order.  Any malformed
    line, or a ``"gt"`` identity repeated within one frame, raises
    MotFormatError naming the line.
    """
    if kind not in ("det", "gt"):
        raise ValueError(f"unknown kind {kind!r}")
    out = []
    seen = set()
    for lineno, raw in enumerate(_open_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) < 7 or len(fields) > 10:
            raise MotFormatError(
                f"expected 7-10 fields at line {lineno}, got {len(fields)}"
            )
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
            box = BBox(left, top, width, height)
            if kind == "det":
                out.append(Detection(frame=frame, box=box, confidence=min(max(conf, 0.0), 1.0)))
                continue
            if ident < 1:
                raise ValueError("non-positive identity")
            if (frame, ident) in seen:
                raise ValueError(f"duplicate identity {ident} in frame {frame}")
            seen.add((frame, ident))
            # 9-field rows follow the MOT17 gt convention and carry visibility.
            vis = 1.0
            if len(fields) == 9:
                vis = float(fields[8])
                if not math.isfinite(vis):
                    raise ValueError(f"non-finite visibility {vis}")
                vis = min(max(vis, 0.0), 1.0)
            out.append(
                GtEntry(frame=frame, identity=ident, box=box, visibility=vis, active=conf != 0.0)
            )
        except ValueError as exc:
            raise MotFormatError(f"{exc} at line {lineno}") from None
    if kind == "det":
        out.sort(key=lambda d: d.frame)
    else:
        out.sort(key=lambda g: (g.frame, g.identity))
    return out


@_names_file
def parse_attr_file(source) -> dict[int, AttributeVector]:
    """Parse the attribute sidecar into identity -> binary AttributeVector."""
    result: dict[int, AttributeVector] = {}
    for lineno, raw in enumerate(_open_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 1 + N_ATTRIBUTES:
            raise MotFormatError(
                f"expected {1 + N_ATTRIBUTES} fields at line {lineno}, got {len(fields)}"
            )
        try:
            ident = int(fields[0])
            bits = [float(x) for x in fields[1:]]
        except ValueError as exc:
            raise MotFormatError(f"bad numeric field at line {lineno}: {exc}") from None
        if ident in result:
            raise MotFormatError(f"duplicate identity {ident} at line {lineno}")
        try:
            vec = AttributeVector.binary(bits)
        except ValueError as exc:
            raise MotFormatError(f"invalid attribute vector at line {lineno}: {exc}") from None
        result[ident] = vec
    return result


def write_mot_file(entries: Iterable[GtEntry]) -> str:
    """Serialize result/gt rows to the 10-field MOT format.

    Rows are written in (frame, id) order; returns the text.
    """
    rows = sorted(entries, key=lambda g: (g.frame, g.identity))
    buf = io.StringIO()
    for g in rows:
        conf = "1" if g.active else "0"
        buf.write(
            f"{g.frame},{g.identity},{_fmt_coord(g.box.left)},{_fmt_coord(g.box.top)},"
            f"{_fmt_coord(g.box.width)},{_fmt_coord(g.box.height)},{conf},-1,-1,-1\n"
        )
    return buf.getvalue()


def write_det_file(detections: Iterable[Detection]) -> str:
    """Serialize detections (id column is -1) to the 10-field MOT format."""
    rows = sorted(detections, key=lambda d: d.frame)
    buf = io.StringIO()
    for d in rows:
        buf.write(
            f"{d.frame},-1,{_fmt_coord(d.box.left)},{_fmt_coord(d.box.top)},"
            f"{_fmt_coord(d.box.width)},{_fmt_coord(d.box.height)},{d.confidence:.2f},-1,-1,-1\n"
        )
    return buf.getvalue()


def write_attr_file(attrs: dict[int, AttributeVector]) -> str:
    """Serialize the identity -> attributes map as the sidecar format."""
    buf = io.StringIO()
    buf.write(ATTR_HEADER + "\n")
    for ident in sorted(attrs):
        bits = ",".join(str(int(b)) for b in attrs[ident].values)
        buf.write(f"{ident},{bits}\n")
    return buf.getvalue()


def write_feature_file(detections: Iterable[Detection]) -> str:
    """Serialize per-detection features, aligned with the det file order.

    Rows are counted from 1 after the header.  A row whose attributes are
    not 32 values in [0, 1], or whose embedding holds a non-finite value,
    raises ``FeatureError`` naming the row and its frame; a value whose
    ``%.10g`` text reads back as inf raises ValueError naming the same.
    """
    rows = sorted(detections, key=lambda d: d.frame)
    if any(d.embedding is None or d.attr_obs is None for d in rows):
        raise ValueError("detection without features cannot be written to a feature file")
    if not rows:
        return f"{FEAT_HEADER_PREFIX}0\n"
    dim = len(rows[0].embedding)
    if any(len(d.embedding) != dim for d in rows):
        raise ValueError("inconsistent embedding dimension in feature file")

    buf = io.StringIO()
    buf.write(f"{FEAT_HEADER_PREFIX}{dim}\n")
    row_fmt = ",".join(["%.10g"] * (dim + N_ATTRIBUTES)) + "\n"
    # A block of rows at a time is stacked and checked, which bounds the
    # table's memory; each row is formatted alone, since one .tolist() of
    # many rows would hold every value as a Python float at once.
    for lo in range(0, len(rows), _WRITE_BLOCK):
        block = rows[lo:lo + _WRITE_BLOCK]

        def name(i):
            return f"feature row {lo + i + 1} (frame {block[i].frame})"

        table = np.empty((len(block), dim + N_ATTRIBUTES))
        table[:, :dim] = [d.embedding for d in block]
        table[:, dim:] = stack_attribute_rows([d.attr_obs for d in block], name)
        check_feature_rows(table[:, :dim], table[:, dim:], name)
        for row, (d, values) in enumerate(zip(block, table), start=lo + 1):
            text = row_fmt % tuple(values.tolist())
            # %.10g rounds values near the float64 maximum up to
            # 1.797693135e+308, which reads back as inf.  "+" only appears in
            # exponents of 10 and up, so the precise check runs on rows with
            # huge values only.
            if "+" in text and math.inf in map(abs, map(float, text.split(","))):
                raise ValueError(f"feature row {row} (frame {d.frame}) has a value that"
                                 " %.10g writes as inf")
            buf.write(str(d.frame) + "," + text)
    return buf.getvalue()


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
def parse_feature_file(source, detections: list[Detection]) -> list[Detection]:
    """Join a feature sidecar onto detections parsed from the det file.

    The sidecar must have exactly one row per detection, in the same order.
    Returns new Detection values carrying embedding and attr_obs.
    """
    lines = [(n, ln.strip()) for n, ln in enumerate(_open_lines(source), start=1)]
    lines = [(n, ln) for n, ln in lines if ln]
    dim = _header_dim(lines[:1])
    body = lines[1:]
    if len(body) != len(detections):
        raise MotFormatError(
            f"feature file has {len(body)} rows for {len(detections)} detections"
        )
    table = _parse_feature_table(body, 1 + dim + N_ATTRIBUTES)
    emb = table[:, 1:1 + dim]
    attrs = np.clip(table[:, 1 + dim:], 0.0, 1.0)
    # A row's frame is checked before its arrays, so the first bad line wins.
    bad_row, reason = feature_row_error(emb, attrs) or (len(body), None)
    out = []
    for i, ((lineno, line), det) in enumerate(zip(body, detections)):
        try:
            # int() of the text, not of the float column, so "1.5" or "1.0" fails.
            frame = int(line[:line.index(",")])
            if frame != det.frame:
                raise ValueError(f"feature row frame {frame} does not match detection"
                                 f" frame {det.frame}")
            if i == bad_row:
                raise ValueError(reason)
            out.append(Detection(frame=det.frame, box=det.box, confidence=det.confidence,
                                 embedding=emb[i], attr_obs=attrs[i]))
        except ValueError as exc:
            raise MotFormatError(f"{exc} at line {lineno}") from None
    return out
