"""Channel CSV ingest: a file in, a standardized ``ChannelMatrix`` out.

Conventions: a channel CSV has rows=time with a header of channel names
(``transpose``, the CLI's ``--transpose``, reads channels as rows, each with
its name in the first cell and no header).  Every file is decoded as UTF-8
whatever the locale, and a leading byte-order mark is not part of the first
name.  Lines that hold no data (``_skipped``) are skipped.  Names are split
with ``csv.reader``; the whole body goes through one ``np.loadtxt`` call, so
numbers follow numpy's syntax (no digit-group underscores, ASCII digits
only).  ``ChannelMatrix`` judges names, width and values; a body that fails
it or the parse is read again, to name a bad name first, then the offending
row and column, and an undecodable byte gives its file offset.  A pipe is
read once: it keeps the parse's or the matrix's own message, and a decode
failure's position is counted in the reader's block.

Memory: the text is never held whole, and the matrix adopts the parsed
array (a transposed body after one copy into sample-major order), so past
the parse ingest holds the matrix plus at most one working copy: a traced
peak of about 2.1x the matrix, 2.8x in loadtxt for a transposed file.
"""
from __future__ import annotations

import codecs
import csv
import io
import math
import os
import stat
import warnings
from contextlib import contextmanager
from functools import partial
from itertools import chain
from operator import itemgetter

import numpy as np

from .channels import ChannelMatrix, check_names
from .errors import DegenerateInputError, IngestionError

# the size of a block read while a decode failure (bytes) or a bad line (characters) is located
_BLOCK_CHARS = 1 << 20
# how an input CSV is decoded: UTF-8, less a leading byte-order mark
_INPUT_ENCODING = "utf-8-sig"
# a rows file is parsed in forked parts of at least this many bytes, one per usable CPU
_MIN_PART_BYTES = 1 << 20


def _skipped(line: str) -> bool:
    """Whether a line holds no data.

    Skipped: blank lines, lines whose cells are all whitespace, and lines
    whose first cell, quoted or not, starts with ``#`` after whitespace.  Only
    a line that opens with a quote or a comma is split with ``csv.reader``.
    """
    head = line.lstrip()[:1]
    if head in ("", "#"):
        return True
    if head in ',"':
        cells = next(csv.reader([line]))
        return cells[0].lstrip().startswith("#") or all(not c.strip() for c in cells)
    return False


def _split_name(line: str) -> tuple[str, str]:
    """Split a transposed line into its first cell, as ``csv.reader`` reads
    it, and the text of the cells after it."""
    if not line.startswith('"'):
        name, _, rest = line.partition(",")
        return name, rest
    # a quoted name runs to its closing quote ("" is an escaped quote) and
    # then to the next comma
    q = 0
    while (q := line.find('"', q + 1)) >= 0 and line.startswith('"', q + 1):
        q += 1
    stop = line.find(",", q + 1) if q >= 0 else -1
    if stop < 0:
        stop = len(line)
    return next(csv.reader([line[:stop]]))[0], line[stop + 1 :]


def _data_lines(fh, transpose: bool, names: list[str]):
    """The lines ``_skipped`` keeps in the text file ``fh``, past the header,
    as (line number, line, cell text) triples.  ``names`` gains the header's
    names before the first triple, or with ``transpose`` each line's name with
    its triple, whose cell text is then the text after the name."""
    lines = enumerate((text.rstrip("\n") for text in fh), 1)
    kept = ((num, line) for num, line in lines if not _skipped(line))
    if not transpose:
        for _, header in kept:
            names.extend(c.strip() for c in next(csv.reader([header])))
            break
    for num, line in kept:
        if transpose:
            name, cells = _split_name(line)
            names.append(name.strip())
            yield num, line, cells
        else:
            yield num, line, line


def _bad_cell(num: int, line: str, names, width: int, transpose: bool) -> str | None:
    """What is wrong with data line ``num``, split with ``csv.reader``: a
    ragged row or its first bad cell, None for a good line.  A transposed
    line's first cell is its name, and ``names`` is not read."""
    cells = next(csv.reader([line]))
    name = cells.pop(0).strip() if transpose else None
    if len(cells) != width:
        unit = "samples" if transpose else "cells"
        return f"row {num} has {len(cells)} {unit}; expected {width}"
    for col, cell in enumerate(map(str.strip, cells)):
        try:  # numpy's syntax: Python's float syntax on ASCII text, without digit-group underscores
            if not cell.isascii() or "_" in cell:
                raise ValueError(cell)
            if math.isfinite(float(cell)):
                continue
            kind = "non-finite"
        except ValueError:
            kind = "non-numeric"
        label = name if transpose else names[col]
        return f"row {num}, column {label!r}: {kind} cell {cell!r}"
    return None


def _first_bad(block, names, width: int, transpose: bool) -> str | None:
    """``_bad_cell``'s fault for the first bad line of ``block``, ``_data_lines``
    triples; a block numpy parses into one finite row of ``width`` per line is not split."""
    texts = [text for _, _, text in block]
    try:
        rows = _load(_with_cells(texts), raw=False)
        if rows.shape == (len(texts), width) and np.isfinite(rows).all():
            return None
    except ValueError:
        pass
    faults = (_bad_cell(num, line, names, width, transpose) for num, line, _ in block)
    return next(filter(None, faults), None)


def _raise_bad_input(path: str, transpose: bool) -> None:
    """Read the file again and raise what failed its parse or the matrix: a
    bad channel name first, then the first ragged row or bad cell, sought
    in blocks of ``_BLOCK_CHARS`` characters.  The file is read to its end,
    so an undecodable byte anywhere still raises."""
    names, width, found, block, size = [], None, None, [], 0
    with open(path, encoding=_INPUT_ENCODING) as fh:
        for row in _data_lines(fh, transpose, names):
            if width is None:  # the header's width, or the first row's sample count
                width = len(next(csv.reader([row[1]]))) - 1 if transpose else len(names)
            if found is None:
                block.append(row)
                size += len(row[1])
                if size >= _BLOCK_CHARS:
                    found, block, size = _first_bad(block, names, width, transpose), [], 0
    if found is None and block:
        found = _first_bad(block, names, width, transpose)
    check_names(names, "row" if transpose else "column")
    if found is not None:
        raise IngestionError(found)


def _decode_failure(path: str, err: UnicodeDecodeError) -> str:
    """``err``'s message with the position counted in the file, not in the
    text reader's read block: the file is decoded again, in binary."""
    decoder = codecs.getincrementaldecoder(err.encoding)()
    with open(path, "rb") as fh:
        while True:
            base = fh.tell() - len(decoder.getstate()[0])  # where the bytes decoded next start
            block = fh.read(_BLOCK_CHARS)
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as bad:
                start, stop = base + bad.start, base + bad.end - 1
                what = f"byte 0x{bad.object[bad.start]:02x}" if start == stop else "bytes"
                where = start if start == stop else f"{start}-{stop}"
                return f"'{bad.encoding}' codec can't decode {what} in position {where}: {bad.reason}"
            if not block:
                return str(err)  # the file changed since the text read


def _load(lines, raw: bool) -> np.ndarray:
    """``lines`` parsed by numpy: taken as read with ``raw``, else with quoted cells."""
    return np.loadtxt(
        lines,
        delimiter=",",
        quotechar=None if raw else '"',
        comments=None,
        ndmin=2,
        dtype=np.float64,
    )


def _with_cells(texts):
    """``texts`` as they are; an empty one, which loadtxt would drop, raises ValueError."""
    for text in texts:
        if not text:
            raise ValueError("a row has no cells")
        yield text


def _parse(fh, transpose: bool, raw: bool) -> tuple[list[str], np.ndarray | None]:
    """Channel names and the unchecked body of the text file ``fh``, parsed
    by one ``np.loadtxt`` call: samples by channels, or channels by samples
    with ``transpose``; None for no data lines.  A body that does not parse
    raises ValueError.  The header and first data line are found through
    ``_data_lines``; with ``raw`` (rows) the rest reaches loadtxt as read, unquoted."""
    names: list[str] = []
    texts = map(itemgetter(2), _data_lines(fh, transpose, names))
    if transpose:
        texts = _with_cells(texts)
    first = next(texts, None)
    if first is None:  # a rows header, if any, over no body
        return names, (np.empty((0, len(names))) if names else None)
    return names, _load(chain((first,), fh if raw else texts), raw)


class _Span(io.RawIOBase):
    """Bytes ``start`` up to ``stop`` of the open file ``fd``, read without
    moving its offset."""

    def __init__(self, fd: int, start: int, stop: int):
        super().__init__()
        self.fd, self.pos, self.stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        got = os.preadv(self.fd, [memoryview(buf)[: self.stop - self.pos]], self.pos)
        self.pos += got
        return got


def _span_text(fd: int, start: int, stop: int, encoding: str):
    """Bytes ``start`` up to ``stop`` of ``fd`` as a text file, read as ``open`` reads one."""
    return io.TextIOWrapper(io.BufferedReader(_Span(fd, start, stop)), encoding=encoding)


def _part_cuts(fd: int) -> list[int]:
    """Bounds of the byte ranges the rows file ``fd`` is parsed in: one per
    usable CPU, each at least ``_MIN_PART_BYTES``, each cut at k * size /
    parts moved on to just after the next newline byte, which is never inside
    a UTF-8 sequence or a CRLF pair.  One range, the whole file, for a file
    that is not regular or a platform without ``sched_getaffinity``."""
    st = os.fstat(fd)
    if not stat.S_ISREG(st.st_mode) or not hasattr(os, "sched_getaffinity"):
        return [0, st.st_size]
    parts = min(len(os.sched_getaffinity(0)), st.st_size // _MIN_PART_BYTES)
    cuts = [0]
    for k in range(1, parts):
        pos = k * st.st_size // parts
        while (block := os.pread(fd, io.DEFAULT_BUFFER_SIZE, pos)) and b"\n" not in block:
            pos += len(block)
        cuts.append(pos + block.index(b"\n") + 1 if block else st.st_size)
    return sorted({*cuts, st.st_size})


@contextmanager
def _forked(jobs):
    """The read ends, in job order, of one pipe per job, each written by
    ``job(write_end)`` in a forked child of its own.  The child closes the
    read ends it inherited, so its writes fail once this process is gone, and
    never returns into this process's code.  Every child is reaped on every
    way out, and killed with SIGKILL first on every way out but success."""
    pids, pipes = [], []
    try:
        for job in jobs:
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
                if not pid:  # the child: status 0 where its job returns
                    try:
                        for inherited in pipes:
                            os.close(inherited)
                        job(write_end)
                    except BaseException:
                        os._exit(1)
                    os._exit(0)
                pids.append(pid)
            finally:
                os.close(write_end)  # so that a child's exit ends its pipe
        yield pipes
    except BaseException:
        from signal import SIGKILL

        for pid in pids:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for read_end in pipes:
            os.close(read_end)
        for pid in pids:
            os.waitpid(pid, 0)


def _fill(fd: int, array: np.ndarray) -> np.ndarray:
    """``array``, its bytes read from the pipe ``fd``; a short read raises ValueError."""
    view = memoryview(array).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise ValueError("a part ended early")
        view = view[got:]
    return array


def _send_part(fd: int, start: int, stop: int, pipe: int) -> None:
    """Parse bytes ``start`` up to ``stop`` of ``fd`` raw and write the
    part's shape and float64 rows to ``pipe``.  A part that does not parse or
    warns (as one without rows does) raises with nothing written."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        part = _load(_span_text(fd, start, stop, "utf-8"), raw=True)
    with open(pipe, "wb") as out:
        out.write(np.array(part.shape, dtype=np.int64))
        out.write(part)


def _parse_parts(fd: int, cuts: list[int]) -> tuple[list[str], np.ndarray]:
    """Names and body of the rows file ``fd`` in the ranges between ``cuts``,
    put together in file order: the first range parsed here by ``_parse``,
    each later one in a child of ``_forked``.  A range that does not parse raw
    or is not as wide as the header raises ValueError; no child, OSError."""
    jobs = [partial(_send_part, fd, start, stop) for start, stop in zip(cuts[1:-1], cuts[2:])]
    with _forked(jobs) as pipes:
        names, head = _parse(_span_text(fd, 0, cuts[1], _INPUT_ENCODING), False, raw=True)
        if head is None:
            raise ValueError("no header in the first part")
        shapes = [_fill(read_end, np.empty(2, dtype=np.int64)) for read_end in pipes]
        if any(width != len(names) for _, width in [head.shape, *shapes]):
            raise ValueError("row width differs from the header")
        at = len(head)
        # grown in place where the allocator can, so no second copy of the rows is held
        head.resize((at + sum(int(rows) for rows, _ in shapes), len(names)), refcheck=False)
        for read_end, (rows, _) in zip(pipes, shapes):
            _fill(read_end, head[at : at + rows])
            at += rows
        return names, head


def _parse_rows(fh) -> tuple[list[str], np.ndarray | None]:
    """Names and body of the seekable rows file ``fh``.  The body goes to
    loadtxt as read, which reads as the filtered body: loadtxt drops only
    empty lines and raises on every other line the skip rule drops.  It is
    parsed in forked parts where ``_part_cuts`` finds more than one range,
    else (or where a part cannot start) in this process.  A body that does
    not parse or fit together so is read again with every line filtered."""
    try:
        cuts = _part_cuts(fh.fileno())
        if len(cuts) > 2:
            try:
                return _parse_parts(fh.fileno(), cuts)
            except OSError:  # no fork or pipe: the whole body in this process
                pass
        return _parse(fh, False, raw=True)
    except ValueError:  # a line the rule skips, a quote or a bad cell: filter every line
        fh.seek(0)
        return _parse(fh, False, raw=False)


def ingest_csv(path: str, transpose: bool = False) -> ChannelMatrix:
    """The standardized matrix of the channel CSV at ``path``, read as this
    module's docstring sets out; a file that cannot be read or used as
    channels raises ``IngestionError``."""
    names, seekable = None, False
    try:
        try:
            with open(path, encoding=_INPUT_ENCODING) as fh:
                seekable = fh.seekable()  # a pipe is read once, in one filtered pass
                if transpose or not seekable:
                    names, data = _parse(fh, transpose, raw=False)
                else:
                    names, data = _parse_rows(fh)
            if data is None:
                raise IngestionError(f"{path} contains no data rows")
            # both orientations hand over the same layout (each time step contiguous),
            # so they standardize to the same bits; only this function holds the array
            data = np.asfortranarray(data) if transpose else data.T
            matrix = ChannelMatrix._adopt(names, data)
        except (UnicodeDecodeError, IngestionError):  # ValueErrors, but not the body's
            raise
        except ValueError as err:  # a body that does not parse, or that the matrix refuses
            if names is not None:  # parsed names are judged without a second read
                check_names(names, "row" if transpose else "column")
            if seekable:
                _raise_bad_input(path, transpose)
            raise IngestionError(f"{path}: {err}") from None
        return matrix.standardized()
    except UnicodeDecodeError as err:
        reason = _decode_failure(path, err) if seekable else err
        raise IngestionError(f"cannot read {path}: {reason}") from err
    except OSError as err:
        raise IngestionError(f"cannot read {path}: {err}") from err
    except DegenerateInputError as err:
        raise IngestionError(f"{path}: {err}") from err
