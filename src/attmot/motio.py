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
seventh are not read otherwise.

The attribute sidecar holds one line per identity, ``id,b0,...,b31``, after
a one-line header ``# attmot-attrs v1``, and is read and written as an
``(n, 32)`` table.  Its identities must be >= 1 and appear once.

The feature sidecar aligns with the detection file line-for-line (in
frame order): ``frame,<embedding floats>,<32 attribute floats>`` after a
header ``# attmot-feats v1 dim=<d>``; the floats are written as ``'%.10g'
% v`` writes them.  ``write_feature_file`` streams it a fixed number of
rows at a time, never holding the whole text, and formats each block in
array passes: ±0.0 and values in [1e-4, 1) (embedding components) are
built from integer digits of an exactly scaled value that is provably not
near a decimal tie, and every other value is formatted by ``%`` once per
distinct value in the block and spliced into place.

Ground truth and tracker results are read and written as one
``core.MotTable`` per file, and detections as ``{frame: core.Detections}``
mappings; the writers take only checked tables.  Every format is read by
one conversion (``_records``): frames and identities as ``int()`` reads
them, every other field as ``float()`` does, except that ``_`` digit
separators and integers beyond int64 are refused.  The numbered lines
convert in one ``np.loadtxt`` pass and each row rule is one mask over the
rows (``core.first_broken``).  A file that fails to convert is scanned
once for its first bad line, whose error (``int()``'s or ``float()``'s
own message, a field count, or ``bad numeric field`` for a field only the
strict conversion refuses) counts only when no row before it breaks a
rule, so each parser names the first bad line.  The feature sidecar's
``dim=`` is checked against the rows' field counts before it sizes any
memory, and its rows refuse a non-finite embedding value, or attributes
that are not 32 values in [0, 1].  When ``source`` is a path, parse errors
name the file as well as the line.
"""
from __future__ import annotations

import contextlib
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
    first_broken,
)

ATTR_HEADER = "# attmot-attrs v1"
FEAT_HEADER_PREFIX = "# attmot-feats v1 dim="
_WRITE_BLOCK = 16  # feature rows formatted and written at once


class MotFormatError(ValueError):
    """Malformed MOT or sidecar file; message carries the line number, and
    the file name when the parser was given a path."""


def _open_lines(source) -> Iterable[str]:
    """Lines of a path, bytes or file-like source; a line with a non-ASCII
    byte or character raises MotFormatError naming the line."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii", errors="surrogateescape") as fh:
            yield from _open_lines(fh)
        return
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("ascii", errors="surrogateescape"))
    for lineno, line in enumerate(source, start=1):
        if isinstance(line, bytes):
            line = line.decode("ascii", errors="surrogateescape")
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
_VISIBILITY = np.dtype([("visibility", np.float64)])
_FRAME = np.dtype([("frame", np.int64)])
_ATTR_ROW = np.dtype([("id", np.int64), ("bits", np.float64, (N_ATTRIBUTES,))])
_BOX_FIELDS = ("left", "top", "width", "height")


def _loadtxt(lines: list[str], dtype, usecols=None):
    return np.loadtxt(lines, delimiter=",", dtype=dtype, usecols=usecols, comments=None,
                      ndmin=1)


def _numbered_lines(source, comments: bool):
    """``(lines, failure)``: the stripped non-blank ``(line number, text)``
    lines of ``source``, without those starting with ``#`` when
    ``comments``, up to the first non-ASCII line, whose MotFormatError is
    ``failure`` (None when every line is ASCII)."""
    lines = []
    try:
        for n, raw in enumerate(_open_lines(source), start=1):
            line = raw.strip()
            if line and not (comments and line.startswith("#")):
                lines.append((n, line))
    except MotFormatError as exc:
        return lines, exc
    return lines, None


def _records(body: list[tuple[int, str]], dtype: np.dtype, fields=None, usecols=None,
             counts=None):
    """``(rows, stop)``: the ``(line number, text)`` rows of ``body``, of
    ``fields`` ``(fewest, most)`` fields each (by default the record's
    width), as one ``dtype`` record array of their first columns (or of
    ``usecols``), converted in one ``np.loadtxt`` pass: an int64 field as
    ``int()`` reads it, a float64 field as ``float()`` does, bit for bit.
    ``counts`` are the rows' field counts when the caller has taken them.

    When a row has the wrong number of fields or the pass fails, one scan
    finds the first bad row; ``stop`` is its ``(index, MotFormatError)``
    (None when every row converts), naming its line: ``expected N
    fields``, ``int()``'s or ``float()``'s own message, or ``bad numeric
    field`` for a field they read but the strict conversion refuses (a
    ``_`` separator, an integer beyond int64).  ``rows`` holds the rows
    before the bad one, and in that last case the bad row too, as they
    read it (unless an integer does not fit), for the caller's rules.
    """
    if not body:
        return np.zeros(0, dtype), None
    convert = [int if dtype[name].base.kind == "i" else float
               for name in dtype.names for _ in range(math.prod(dtype[name].shape))]
    fewest, most = fields or (len(convert), len(convert))
    lines = [line for _, line in body]
    if counts is None:
        # without usecols, np.loadtxt refuses a row of any width but the record's
        counts = [line.count(",") + 1 for line in lines] if usecols else [len(convert)]
    if fewest <= min(counts) and max(counts) <= most:
        with contextlib.suppress(ValueError):
            return _loadtxt(lines, dtype, usecols), None
    rows = [np.zeros(0, dtype)]
    for index, (lineno, line) in enumerate(body):
        if not fewest <= (count := line.count(",") + 1) <= most:
            expected = fewest if fewest == most else f"{fewest}-{most}"
            error = f"expected {expected} fields at line {lineno}, got {count}"
            break
        try:
            rows.append(_loadtxt([line], dtype, usecols))
            continue
        except ValueError as exc:
            error = f"bad numeric field at line {lineno}: {exc}"
        texts = line.split(",")
        try:
            values = [conv(texts[c]) for conv, c in zip(convert, usecols or range(len(convert)))]
        except ValueError as exc:
            error = f"{exc} at line {lineno}"
            break
        # the row as int() and float() read it: repr() round-trips every
        # value, and an integer beyond int64 still fails
        with contextlib.suppress(ValueError):
            rows.append(_loadtxt([",".join(map(repr, values))], dtype))
        break
    else:  # every row converts on its own
        return np.concatenate(rows), None
    return np.concatenate(rows), (index, MotFormatError(error))


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
    return first_broken(rules)


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
    body, failure = _numbered_lines(source, comments=True)  # rows before a non-ASCII one go first
    counts = [line.count(",") + 1 for _, line in body]
    rows, stop = _records(body, _MOT_ROW, (7, 10), range(7), counts)
    vis = np.ones(len(rows))
    if kind == "gt":
        # a visibility int() or float() refuses keeps its row for its rules,
        # and comes before a strict refusal of the row's first seven fields
        nine = [i for i, count in enumerate(counts[:len(rows)]) if count == 9]
        seen, unconverted = _records([body[i] for i in nine], _VISIBILITY, (9, 9), (8,),
                                     [9] * len(nine))
        vis[nine[:len(seen)]] = seen["visibility"]
        if unconverted is not None:
            row = nine[unconverted[0]]
            if stop is None or row < stop[0] or len(seen) == unconverted[0]:
                rows, vis, stop = rows[:row + 1], vis[:row + 1], (row, unconverted[1])
    broken = _broken_rule(rows, vis, kind)
    if broken is not None:
        raise MotFormatError(f"{broken[1]} at line {body[broken[0]][0]}")
    if stop or failure:
        raise stop[1] if stop else failure
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
    body, unread = _numbered_lines(source, comments=True)
    table, stop = _records(body, _ATTR_ROW)
    ids, bits = np.ascontiguousarray(table["id"]), np.ascontiguousarray(table["bits"])
    repeat = np.ones(len(ids), dtype=bool)
    repeat[np.unique(ids, return_index=True)[1]] = False
    bad_row, reason = binary_attribute_error(bits) or (-1, None)
    # a row before the line that fails to convert may break a rule first
    broken = first_broken([
        (ids < 1, lambda r: f"non-positive identity {ids[r]} at line {body[r][0]}"),
        (repeat, lambda r: f"duplicate identity {ids[r]} at line {body[r][0]}"),
        (np.arange(len(ids)) == bad_row,
         lambda r: f"invalid attribute vector at line {body[r][0]}: {reason}"),
    ])
    if broken is not None:
        raise MotFormatError(broken[1])
    if stop or unread:
        raise stop[1] if stop else unread
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


# A value's text fills one _SLOT-byte slot of five 4-byte words: the text
# from byte 0, NUL padding, and "," (or "\n" ending a row) in the last
# byte, so deleting the NULs of a block of slots leaves its rows' text.
# A value built from digits takes its words from _words(): the sign, "0",
# "." and the zeros after it (bytes 0-5, by sign and exponent), then its
# 10 digits as 2 + 4 + 4 (bytes 6-15), each group NUL in place of trailing
# zeros that no nonzero digit follows.
_SLOT = 20
_SCALE = np.array([float(10 ** k) for k in range(9, 15)])  # exact powers of ten
# offsets in _words() of the second words, the digit groups and the tails
_W1 = 2 * 6
_W2 = _W1 + 6 * 2 * 100
_TAIL = _W2 + 2 * 10000


@functools.cache
def _words() -> np.ndarray:
    """The words values are built from, made on first use.  At ``j + 6 *
    sign``: the first word of a value at decimal exponent ``-j`` (``j`` 5 is
    ±0, which has no "."); at ``_W1 + 200 * j + 100 * strip + q``: the
    second, ending in the first two digits ``q``; at ``_W2 + 10000 * strip
    + g``: a 4-digit group ``g``; at ``_TAIL`` and ``_TAIL + 1``: the last
    word of a value and of a row.  ``strip`` puts NULs in place of the
    trailing zeros."""
    def head(sign, j):  # bytes 0-5: the sign, "0", "." and the zeros after it
        if not 1 <= j <= 4:
            return ("-" if sign else "\0") + "0\0\0\0\0"
        return (("-" if sign else "\0") + "0." + "0" * (j - 1)).ljust(6, "\0")

    def digits(value, width, strip):
        text = f"{value:0{width}d}"
        return (text.rstrip("0") if strip else text).ljust(width, "\0")

    first = [head(sign, j)[:4] for sign in (0, 1) for j in range(6)]
    second = [head(0, j)[4:] + digits(q, 2, strip)
              for j in range(6) for strip in (0, 1) for q in range(100)]
    groups = [digits(g, 4, strip) for strip in (0, 1) for g in range(10000)]
    words = "".join(first + second + groups + ["\0\0\0,", "\0\0\0\n"]).encode("ascii")
    return np.frombuffer(words, dtype=np.uint32)


class _FeatureBlock:
    """Formats up to ``rows`` feature-sidecar rows of ``width - 1`` values,
    each value as ``'%.10g' % v`` writes it, in array passes over work
    arrays allocated once and reused for every block of a file.

    ±0.0 and every value whose 10-digit rounding has decimal exponent -4 to
    -1 (the magnitudes of unit-norm embeddings) are built from integer
    digits.  Such a value is scaled by an exact power of ten ``10**(9 -
    e)``, ``e`` the exponent estimate ``floor(log10|v|)``, so the scaled
    value ``s`` carries one rounding error, below 1.2e-6, and its digits
    are ``rint(s)`` only when ``|s - rint(s)| < 0.5 - 1e-4`` keeps ``s``
    away from a decimal tie.  A ``rint(s)`` of 1e10 rounded up to the next
    power of ten, so it is 1e9 at exponent ``e + 1``; an ``s`` below 1e9
    or a ``rint(s)`` above 1e10 means the estimate is off.  Such a value,
    like a value near a tie or of another magnitude (>= 1, < 1e-4,
    subnormal, huge), is formatted with ``'%.10g' %`` once per distinct
    value in the block and spliced into place.
    """

    def __init__(self, rows: int, width: int):
        n = rows * width
        self.width = width
        self.values = np.zeros((rows, width))  # column 0 is the row's frame slot
        self.buf = bytearray(n * _SLOT)
        self.slots = np.frombuffer(self.buf, dtype=np.uint8).reshape(n, _SLOT)
        self.mag, self.scaled, self.rounded, self.near = (np.empty(n) for _ in range(4))
        self.exp, self.ints = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
        self.index = np.empty((n, _SLOT // 4), dtype=np.intp)  # into _words(), per word
        self.index[:, -1] = _TAIL
        self.index.reshape(rows, width, -1)[:, -1, -1] = _TAIL + 1
        self.fast, self.flag = np.empty(n, dtype=bool), np.empty(n, dtype=bool)

    def text(self, chunks: list[tuple[int, int, int]], first_row: int) -> str:
        """The text of the block's rows ``0 .. chunks[-1][2]``, where each
        ``(frame, lo, hi)`` chunk is rows ``lo .. hi`` of one frame, and
        ``first_row`` numbers the block's first row in the file."""
        width, n = self.width, chunks[-1][2] * self.width
        v = self.values.reshape(-1)[:n]
        mag, scaled, rounded, near, exp, ints, fast, flag = (
            a[:n] for a in (self.mag, self.scaled, self.rounded, self.near, self.exp,
                            self.ints, self.fast, self.flag))
        index, slots = self.index[:n], self.slots[:n]

        np.abs(v, out=mag)
        # log10(0) is -inf, a huge value scales to inf and inf - inf is nan;
        # no such value is built from digits
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.log10(mag, out=near)
            np.floor(near, out=near)
            np.negative(near, out=near)
            np.clip(near, 0, 5, out=near)             # j = -e, clipped to the tables
            np.copyto(exp, near, casting="unsafe")
            np.take(_SCALE, exp, out=scaled, mode="clip")
            np.multiply(mag, scaled, out=scaled)
            np.rint(scaled, out=rounded)
            np.subtract(scaled, rounded, out=near)
        np.abs(near, out=near)
        np.less(near, 0.5 - 1e-4, out=fast)
        fast &= np.greater_equal(scaled, 1e9, out=flag)
        fast &= np.less_equal(rounded, 1e10, out=flag)
        np.equal(rounded, 1e10, out=flag)             # rounded up to the next power
        exp -= flag
        np.copyto(rounded, 1e9, where=flag)
        fast &= np.greater_equal(exp, 1, out=flag)
        fast &= np.less_equal(exp, 4, out=flag)
        fast |= np.equal(mag, 0.0, out=flag)          # "0" or "-0", j = 5
        slow = np.logical_not(fast, out=flag)
        np.copyto(rounded, 0.0, where=slow)           # keep the integer cast defined

        # the 10 digits as q, g1, g2 (2 + 4 + 4), by exact int64 division; g2
        # drops its trailing zeros, g1 only when g2 is 0, q when both are
        sign, q, g1, g2 = (index[:, k] for k in range(4))
        np.copyto(ints, rounded, casting="unsafe")
        np.floor_divide(ints, 10 ** 8, out=q)
        ints -= np.multiply(q, 10 ** 8, out=g2)
        np.floor_divide(ints, 10 ** 4, out=g1)
        np.subtract(ints, np.multiply(g1, 10 ** 4, out=g2), out=g2)
        g1 += np.multiply(np.equal(g2, 0, out=fast), 10000, out=ints)
        g1 += _W2
        g2 += _W2 + 10000
        q += np.multiply(np.equal(g1, _W2 + 10000, out=fast), 100, out=ints)
        q += np.multiply(exp, 200, out=ints)
        q += _W1
        np.add(np.multiply(np.signbit(v, out=fast), 6, out=sign), exp, out=sign)
        np.take(_words(), index, out=slots.view(np.uint32), mode="clip")

        slow[::width] = False                         # the frame slots
        spliced = np.flatnonzero(slow)
        if len(spliced):
            distinct, which = np.unique(v[spliced], return_inverse=True)
            texts = ["%.10g" % x for x in distinct.tolist()]
            # %.10g rounds values near the float64 maximum up to
            # 1.797693135e+308, which reads back as inf; only texts with an
            # exponent of 10 or more hold a "+".
            inf = [i for i, t in enumerate(texts) if "+" in t and math.isinf(float(t))]
            if inf:
                r = int(spliced[np.isin(which, inf)][0]) // width
                frame = next(f for f, lo, hi in chunks if lo <= r < hi)
                raise ValueError(f"feature row {first_row + r} (frame {frame}) has a value"
                                 " that %.10g writes as inf")
            table = np.array(texts, dtype=f"S{_SLOT - 1}").view(np.uint8)
            slots[spliced, :-1] = table.reshape(len(texts), -1)[which]
        for frame, lo, hi in chunks:
            label = str(frame).encode().ljust(_SLOT - 1, b"\0")
            slots.reshape(-1, width, _SLOT)[lo:hi, 0, :-1] = np.frombuffer(label, np.uint8)
        data = self.buf if n == len(self.slots) else self.buf[:n * _SLOT]
        return data.translate(None, b"\0").decode("ascii")


def write_feature_file(frames: dict[int, Detections], out: TextIO) -> None:
    """Write the features of a ``{frame: Detections}`` mapping, aligned with
    the det file order, to the text stream ``out``.

    The header goes out first, then the rows in blocks of ``_WRITE_BLOCK``
    rows (a frame may span blocks), each formatted in array passes by one
    ``_FeatureBlock`` whose work arrays are allocated once, so memory stays
    at one block whatever the number of rows.  Every value is written as
    ``'%.10g' % v`` writes it.  Rows are counted from 1 after the header.
    A value whose ``%.10g`` text reads back as inf raises ValueError naming
    its row and frame; the blocks before it have been written by then, so a
    caller writing a file removes it on error.
    """
    if any(len(d) and (d.embeddings is None or d.attrs is None) for d in frames.values()):
        raise ValueError("detection without features cannot be written to a feature file")
    dims = {d.embeddings.shape[1] for d in frames.values() if len(d)}
    if len(dims) > 1:
        raise ValueError("inconsistent embedding dimension in feature file")
    dim = dims.pop() if dims else 0

    out.write(f"{FEAT_HEADER_PREFIX}{dim}\n")
    block = _FeatureBlock(_WRITE_BLOCK, 1 + dim + N_ATTRIBUTES)
    values, chunks, filled, first_row = block.values, [], 0, 1
    for dets in (frames[frame] for frame in sorted(frames)):
        done = 0
        while done < len(dets):
            take = min(len(dets) - done, _WRITE_BLOCK - filled)
            values[filled:filled + take, 1:1 + dim] = dets.embeddings[done:done + take]
            values[filled:filled + take, 1 + dim:] = dets.attrs[done:done + take]
            chunks.append((dets.frame, filled, filled + take))
            filled, done = filled + take, done + take
            if filled == _WRITE_BLOCK:
                out.write(block.text(chunks, first_row))
                chunks, filled, first_row = [], 0, first_row + filled
    if chunks:
        out.write(block.text(chunks, first_row))


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
    lines, failure = _numbered_lines(source, comments=False)
    if failure is not None:
        raise failure   # the row count needs every line
    dim = _header_dim(lines[:1])
    body = lines[1:]
    if len(body) != n_rows:
        raise MotFormatError(f"feature file has {len(body)} rows for {n_rows} detections")
    if not body:  # header only: no record to size by dim=
        return {d.frame: replace(d, embeddings=np.zeros((0, dim)),
                                 attrs=np.zeros((0, N_ATTRIBUTES))) for d in batches}
    # The record is sized by the first row's field count, not by dim=, and
    # a first row of another width fails before any conversion.
    width = 1 + dim + N_ATTRIBUTES
    record = np.dtype([("frame", np.int64), ("values", np.float64, (body[0][1].count(","),))])
    rows, stop = _records(body, record, (width, width))
    frames, emb, attrs = rows["frame"], rows["values"][:, :dim], rows["values"][:, dim:]
    if stop is not None and len(rows) == stop[0]:
        # a row's frame is read and checked before its other fields
        head, refused = _records(body[stop[0]:stop[0] + 1], _FRAME, (width, width), (0,))
        frames = np.concatenate([frames, head["frame"]])
        stop = stop if len(head) else (stop[0], refused[1])
    want = np.repeat([d.frame for d in batches], [len(d) for d in batches])[:len(frames)]
    bad_row, reason = feature_row_error(emb, attrs) or (-1, None)
    broken = first_broken([
        (frames != want, lambda r: f"feature row frame {frames[r]} does not match detection"
                                   f" frame {want[r]}"),
        (np.arange(len(frames)) == bad_row, reason),
    ])
    if broken is not None:
        raise MotFormatError(f"{broken[1]} at line {body[broken[0]][0]}")
    if stop is not None:
        raise stop[1]
    ends = np.cumsum([len(d) for d in batches]).tolist()
    return {d.frame: replace(d, embeddings=emb[hi - len(d):hi], attrs=attrs[hi - len(d):hi])
            for d, hi in zip(batches, ends)}
