"""Command-line interface and file IO: CSV channels in, JSON/CSV results out.

Subcommands:

* ``gaussian`` — closed-form curve tables over (rho, sigma_n2) grids.
* ``discrete`` — exact verification of the discrete construction.
* ``estimate`` — end-to-end common-information report from a channel CSV.
* ``sci`` — tune and verify a single noise-injection variable for one pair.
* ``lagscan`` — per-channel lag-scanned correlation against a reference.

Importing this module loads what ``estimate`` runs; the ``gaussian`` and
``discrete`` subcommands import ``hoci.gaussian`` and ``hoci.discrete``
when they run.

Conventions: channel CSVs are rows=time with a header of channel names
(``--transpose`` accepts channels-as-rows with the name in the first cell),
and a leading byte-order mark is not part of the first name.  A channel on
the command line (``--pair``, ``--ref-channel``) is its name, never an
index.  ``lagscan`` takes its window in milliseconds at ``--sample-rate-hz``.
Divergent values are written as ``"inf"`` in CSV and as ``{"divergent":
true}`` objects in JSON; every output embeds the resolved configuration and
seed, and contains no timestamps, so identical runs produce byte-identical
files.  Errors exit nonzero with a machine-readable ``{"error": code,
"message": ...}`` line on stderr.  A run is set by its command line and
its input alone: the seed is ``--seed`` (default 0), and every file is read
and written as UTF-8 whatever the locale.
"""
from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import math
import os
import stat
import sys
import warnings
from dataclasses import asdict
from functools import partial
from itertools import chain

import numpy as np

from . import __version__
from .channels import ChannelMatrix, check_names
from .errors import (
    ENUMERATION_CAP,
    CapacityError,
    ConfigurationError,
    DegenerateInputError,
    HociError,
    IngestionError,
    ParameterDomainError,
)
from .estimators import EstimatorConfig
from .pipeline import (
    SUPPORTED_ORDERS,
    _LAG_WINDOW_S,
    CommonInfoReport,
    _lag_range_samples,
    _pair_sci,
    lag_max_correlation,
    run_estimate,
)
from .sci import EPSILON, MAX_ITERATIONS, verify_sci

CURVE_HEADER = "rho,sigma_n2,I(X;Xi),I(Xi;Xj),I(Xi;Xj|Xk),R2,R3_lower,R4_lower"
LAGSCAN_HEADER = "channel,lag_samples,lag_ms,abs_corr"
_ESTIMATOR_NAMES = {"gaussian": "gaussian_logdet", "knn": "knn", "binned": "binned"}
# report key of each level, and the key of its witness channels
_LEVEL_KEYS = {2: "r2", 3: "r3_lower", 4: "r4_lower"}
_TUPLE_KEYS = {2: "pair", 3: "triple", 4: "quadruple"}
# the tuning constants, as every report's config records them
_BISECTION = {"epsilon": EPSILON, "max_iterations": MAX_ITERATIONS}


# ---------------------------------------------------------------- ingestion

def _parses(cell: str) -> bool:
    """Whether numpy's text parser reads ``cell`` as a float: Python's float
    syntax on ASCII text, without digit-group underscores, after stripping
    whitespace."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


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


def _header_names(line: str) -> list[str]:
    return [c.strip() for c in next(csv.reader([line]))]


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


def _bad_cell(num: int, line: str, names, width: int, transpose: bool) -> str | None:
    """What is wrong with data line ``num``, split with ``csv.reader``: a
    ragged row or its first bad cell, None for a good line.  A transposed
    line's first cell is its name, and ``names`` is not read."""
    cells = next(csv.reader([line]))
    name = cells.pop(0).strip() if transpose else None
    if len(cells) != width:
        unit = "samples" if transpose else "cells"
        return f"row {num} has {len(cells)} {unit}; expected {width}"
    for col, cell in enumerate(cells):
        if not _parses(cell):
            kind = "non-numeric"
        elif not math.isfinite(float(cell)):
            kind = "non-finite"
        else:
            continue
        label = name if transpose else names[col]
        return f"row {num}, column {label!r}: {kind} cell {cell.strip()!r}"
    return None


def _first_bad(block, names, width: int, transpose: bool) -> str | None:
    """``_bad_cell``'s fault for the first bad line of ``block``, (number, line) pairs;
    a block that numpy parses into one finite row of ``width`` per line is not split."""
    texts = [_split_name(line)[1] if transpose else line for _, line in block]
    if all(texts):  # loadtxt drops an empty line
        try:
            rows = _load(texts, raw=False)
            if rows.shape == (len(texts), width) and np.isfinite(rows).all():
                return None
        except ValueError:
            pass
    return next(filter(None, (_bad_cell(*row, names, width, transpose) for row in block)), None)


def _raise_bad_input(path: str, transpose: bool) -> None:
    """Read the file again and raise what failed its parse or the matrix: a
    bad channel name first, then the first ragged row or bad cell, sought
    in blocks of ``_BLOCK_CHARS`` characters.  The file is read to its end,
    so an undecodable byte anywhere still raises.  A file that reads empty
    the second time, as a pipe does, raises nothing."""
    names, width, found, block, size = [], None, None, [], 0
    with open(path, encoding=_INPUT_ENCODING) as fh:
        lines = enumerate((line.rstrip("\n") for line in fh), 1)
        rows = ((num, line) for num, line in lines if not _skipped(line))
        if not transpose:
            header = next(rows, None)
            if header is None:
                return
            names = _header_names(header[1])
            width = len(names)
        for num, line in rows:
            if transpose:
                names.append(_split_name(line)[0].strip())
                if width is None:  # the first row's sample count
                    width = len(next(csv.reader([line]))) - 1
            if found is None:
                block.append((num, line))
                size += len(line)
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


def _parse(fh, transpose: bool, raw: bool) -> tuple[list[str], np.ndarray | None]:
    """Channel names and the unchecked body of the text file ``fh``, parsed
    by one ``np.loadtxt`` call: samples by channels, or channels by samples
    with ``transpose``; None for no data lines.  A body that does not parse
    raises ValueError.  The header and first data line are found through
    ``_skipped``; with ``raw`` (rows) the rest reaches loadtxt as read, unquoted."""
    lines = (line for line in (text.rstrip("\n") for text in fh) if not _skipped(line))
    names: list[str] = []
    if transpose:

        def cells():
            for line in lines:
                name, rest = _split_name(line)
                names.append(name.strip())
                if not rest:  # loadtxt would drop a line without cells
                    raise ValueError("a row has no cells")
                yield rest

        body = cells()
    else:
        header = next(lines, None)
        if header is None:
            return names, None
        names = _header_names(header)
        body = lines
    first = next(body, None)
    if first is None:
        return names, (None if transpose else np.empty((0, len(names))))
    return names, _load(chain((first,), fh if raw else body), raw)


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


def _fill(fd: int, array: np.ndarray) -> None:
    """Read ``array``'s bytes from the pipe ``fd``; a short read raises ValueError."""
    view = memoryview(array).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise ValueError("a part ended early")
        view = view[got:]


def _send_part(fd: int, start: int, stop: int, pipe: int) -> None:
    """In a forked child: parse bytes ``start`` up to ``stop`` of ``fd`` raw,
    write the part's shape and float64 rows to ``pipe`` and exit.  A part
    that does not parse or warns (as one without rows does) exits with
    nothing written."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            part = _load(_span_text(fd, start, stop, "utf-8"), raw=True)
        with open(pipe, "wb") as out:
            out.write(np.array(part.shape, dtype=np.int64))
            out.write(part)
    except BaseException:
        os._exit(1)  # never the parent's cleanup
    os._exit(0)


def _parse_parts(fd: int, cuts: list[int]) -> tuple[list[str], np.ndarray]:
    """Names and body of the rows file ``fd`` in the ranges between ``cuts``:
    a forked child parses each range after the first, this process the
    first, through ``_parse``, and the rows are put together in file order.
    A range that does not parse raw or is not as wide as the header raises
    ValueError; a child that cannot start, OSError.  Each child is reaped on
    every way out, and killed first on every way out but success."""
    pids, pipes, done = [], [], False
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pids.append(os.fork())
                if not pids[-1]:  # the child: with no read end, its writes fail once this process is gone
                    for inherited in pipes:
                        os.close(inherited)
                    _send_part(fd, start, stop, write_end)
            finally:
                os.close(write_end)  # so that a child's exit ends its pipe
        names, head = _parse(_span_text(fd, 0, cuts[1], _INPUT_ENCODING), False, raw=True)
        if head is None:
            raise ValueError("no header in the first part")
        shapes = [np.empty(2, dtype=np.int64) for _ in pipes]
        for read_end, shape in zip(pipes, shapes):
            _fill(read_end, shape)
        if any(width != len(names) for _, width in [head.shape, *shapes]):
            raise ValueError("row width differs from the header")
        at = len(head)
        # grown in place where the allocator can, so no second copy of the rows is held
        head.resize((at + sum(int(rows) for rows, _ in shapes), len(names)), refcheck=False)
        for read_end, (rows, _) in zip(pipes, shapes):
            _fill(read_end, head[at : at + rows])
            at += rows
        done = True
        return names, head
    finally:
        if pids and not pids[-1]:  # a child never leaves: it would run on as this process
            os._exit(1)
        for read_end in pipes:
            os.close(read_end)
        if not done and pids:
            from signal import SIGKILL

            for pid in pids:
                os.kill(pid, SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _parse_rows(fh) -> tuple[list[str], np.ndarray | None]:
    """Names and body of the seekable rows file ``fh``.  The body goes to
    loadtxt as read, in forked parts where ``_part_cuts`` finds more than one
    range, else (or where a part cannot start) in this process.  A body that
    does not parse or fit together so is read again with every line filtered."""
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
    """Read a channel CSV and return the standardized matrix.

    Default orientation: first row is the header of channel names, each
    later row one time sample.  With ``transpose`` each row is one channel,
    its name in the first cell, with no header row.  Lines that hold no
    data (``_skipped``) are skipped.  The header is split with
    ``csv.reader``; the whole body goes through one ``np.loadtxt`` call, so
    numbers follow numpy's syntax (no digit-group underscores, ASCII digits
    only).  ``ChannelMatrix`` judges names, width and values; a body that
    fails it or the parse is read again, to name a bad name first, then the
    offending row and column.  An undecodable byte gives its file offset.

    Speed and memory: a rows body goes to loadtxt straight from the file,
    which reads as the filtered body: loadtxt drops only empty lines and
    raises on every other line the skip rule drops.  A regular rows file is
    parsed in min(usable CPUs, whole MiB of the file) byte ranges where that
    is two or more (Linux only: ``sched_getaffinity``), each range after the
    first in a forked child, bit for bit as in one process; this process's
    rows are grown in place into the matrix, and each child's are read
    straight into it.  A body holding a line the rule drops, a quote or a
    non-numeric cell is parsed again, filtered line by line; where a child
    cannot start, in this process.  The text is never held whole, and the
    matrix adopts the parsed array (a transposed body after one copy into
    sample-major order), so past the parse ingest holds the matrix plus at
    most one working copy: a traced peak of about 2.1x the matrix, 2.8x in
    loadtxt for a transposed file.
    """
    names = None
    try:
        try:
            with open(path, encoding=_INPUT_ENCODING) as fh:
                if transpose or not fh.seekable():
                    # a pipe cannot be read again: its body is filtered in its one pass
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
            _raise_bad_input(path, transpose)
            raise IngestionError(f"{path}: {err}") from None
        return matrix.standardized()
    except UnicodeDecodeError as err:
        raise IngestionError(f"cannot read {path}: {_decode_failure(path, err)}") from err
    except OSError as err:
        raise IngestionError(f"cannot read {path}: {err}") from err
    except DegenerateInputError as err:
        raise IngestionError(f"{path}: {err}") from err


# ------------------------------------------------------------------ output

def _jsonable(value):
    """Recursively convert to JSON-safe values; divergences become tagged objects."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isinf(f):
            return {"divergent": True}
        if math.isnan(f):
            return {"undefined": True}
        return f
    return value


def _write_json(doc: dict, path: str) -> None:
    """Write ``doc`` as JSON after the tool and version stamp."""
    doc = {"tool": "hoci", "version": __version__, **doc}
    text = json.dumps(_jsonable(doc), indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path: str, meta: dict, header: str, rows) -> None:
    """Write a CSV table: the tool and version stamp, one ``# key: value``
    line per ``meta`` entry, ``header``, then ``rows`` (each a line of text)."""
    lines = [f"# tool: hoci {__version__}", *(f"# {k}: {v}" for k, v in meta.items()), header]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in chain(lines, rows))


def _csv_num(value: float) -> str:
    f = float(value)
    if math.isinf(f):
        return "inf"
    if math.isnan(f):
        return "nan"
    return repr(f)


def _level_doc(estimate) -> dict | None:
    if estimate is None:
        return None
    if estimate.channels is None:
        return {"bits": estimate.bits, "reason": estimate.reason}
    return {
        "bits": estimate.bits,
        _TUPLE_KEYS[len(estimate.channels)]: list(estimate.channels),
    }


def emit_report(report: CommonInfoReport, path: str) -> None:
    """Write a full estimation report as deterministic, stable-key-order JSON."""
    doc = {
        "seed": report.seed,
        "config": {
            "order": max(report.levels),
            "time_series": report.time_series,
            "estimator": asdict(report.estimator),
            "bisection": _BISECTION,
        },
        "channels": list(report.channel_names),
        "num_samples": report.num_samples,
        # a level above the requested order is written as null
        **{key: _level_doc(report.levels.get(lvl)) for lvl, key in _LEVEL_KEYS.items()},
        "rbar": {str(k): v for k, v in sorted(report.rbar.items())},
        "rtilde": {str(k): v for k, v in sorted(report.rtilde.items())},
        "chain": {"slack_bits": report.chain_slack_bits, "ok": report.chain_ok},
        "sci": [asdict(d) for d in report.sci_descriptors],
        "exclusions": [
            {"pair": list(e.pair), "code": e.code, "message": e.message}
            for e in report.exclusions
        ],
    }
    _write_json(doc, path)


def _model(spec_type, *params):
    """The model ``spec_type(*params)``; None where it does not exist."""
    try:
        return spec_type(*params)
    except ParameterDomainError:
        return None


def _on_model(quantity, spec) -> float:
    """``quantity`` of ``spec``; nan where the model or the quantity does not exist."""
    if spec is None:
        return math.nan
    try:
        return quantity(spec)
    except ParameterDomainError:
        return math.nan


def emit_gaussian_curves(sigma_x2: float, rho_grid, sigma_n2_grid, path: str) -> int:
    """Write the closed-form curve table over the grid; returns the row count.

    Divergent cells are written as "inf"; a cell whose model does not exist
    (the triple columns below rho = -1/2, R4_lower below -1/3) as "nan".
    """
    rhos = np.asarray(rho_grid, dtype=np.float64)
    noises = np.asarray(sigma_n2_grid, dtype=np.float64)
    if rhos.size == 0 or noises.size == 0:
        raise ConfigurationError("gaussian sweep needs non-empty rho and sigma_n2 grids")
    if rhos.size * noises.size > ENUMERATION_CAP:
        raise CapacityError(
            f"table of {rhos.size} x {noises.size} rows exceeds cap {ENUMERATION_CAP}"
        )
    from .gaussian import (
        GaussianEnsembleSpec,
        cond_mi_xi_xj_given_xk,
        mi_x_xi,
        mi_xi_xj,
        r3_lower,
        r4_lower,
    )

    rows = []
    for rho in rhos:
        for sn2 in noises:
            params = (float(sigma_x2), float(sn2), float(rho))
            spec = GaussianEnsembleSpec(*params)
            triple = _model(GaussianEnsembleSpec, *params, 3)
            quadruple = _model(GaussianEnsembleSpec, *params, 4)
            pairwise = mi_xi_xj(spec)
            cells = (
                rho, sn2, mi_x_xi(spec), pairwise, _on_model(cond_mi_xi_xj_given_xk, triple),
                pairwise, _on_model(r3_lower, triple), _on_model(r4_lower, quadruple),
            )
            rows.append(",".join(_csv_num(c) for c in cells))
    meta = {
        "sigma_x2": _csv_num(sigma_x2),
        "rho_grid": ",".join(_csv_num(r) for r in rhos),
        "sigma_n2_grid": ",".join(_csv_num(s) for s in noises),
    }
    _write_csv(path, meta, CURVE_HEADER, rows)
    return len(rows)


# ------------------------------------------------------------ configuration

def _parse_values(text: str, what: str) -> list[float]:
    """The numbers of the list "a,b,c"; an empty or non-numeric entry is
    refused, naming the input as ``what``."""
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise ConfigurationError(f"{what}: empty entry")
        try:
            values.append(float(piece))
        except ValueError:
            raise ConfigurationError(f"{what}: non-numeric entry {piece!r}") from None
    return values


def parse_grid(text: str) -> np.ndarray:
    """Parse a sweep grid: either "a,b,c" values or "lo:hi:num[:log]"."""
    t = text.strip()
    if ":" in t:
        parts = t.split(":")
        if len(parts) == 3:
            lo_s, hi_s, num_s = parts
            scale = "lin"
        elif len(parts) == 4:
            lo_s, hi_s, num_s, scale = parts
        else:
            raise ConfigurationError(f"grid {text!r}: expected lo:hi:num or lo:hi:num:log")
        try:
            lo, hi, num = float(lo_s), float(hi_s), int(num_s)
        except ValueError:
            raise ConfigurationError(f"grid {text!r}: non-numeric bound or count") from None
        if num < 1:
            raise ConfigurationError(f"grid {text!r}: need at least 1 point")
        if num > ENUMERATION_CAP:
            raise CapacityError(f"grid {text!r}: {num} points exceed cap {ENUMERATION_CAP}")
        if scale == "log":
            if lo <= 0 or hi <= 0:
                raise ConfigurationError(f"grid {text!r}: log spacing needs positive bounds")
            return np.geomspace(lo, hi, num)
        if scale == "lin":
            return np.linspace(lo, hi, num)
        raise ConfigurationError(f"grid {text!r}: unknown scale {scale!r}")
    return np.array(_parse_values(t, f"grid {text!r}"))


def _estimator_from_args(args, **fields) -> EstimatorConfig:
    return EstimatorConfig(
        method=_ESTIMATOR_NAMES[args.estimator], k=args.k, bins=args.bins, **fields
    )


def _channel(matrix: ChannelMatrix, token: str) -> int:
    """The index of the channel a command-line token names.  The token is
    read as UTF-8, whatever the locale decoded the argument as."""
    try:
        token = os.fsencode(token).decode("utf-8", "surrogateescape")
    except UnicodeEncodeError:  # text no argument decodes to, as main() may be passed
        pass
    return matrix.index_of(token)


def _parse_pair(matrix: ChannelMatrix, text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"--pair wants 'name,name', got {text!r}")
    i, j = (_channel(matrix, p.strip()) for p in parts)
    if i == j:
        raise ConfigurationError(f"--pair needs two distinct channels, got {text!r}")
    return i, j


# ------------------------------------------------------------- subcommands

def _cmd_gaussian(args) -> int:
    rows = emit_gaussian_curves(
        args.sigma_x2, parse_grid(args.rho_grid), parse_grid(args.sigma_n2_grid), args.out
    )
    print(f"wrote {rows} closed-form rows to {args.out}")
    return 0


def _cmd_discrete(args) -> int:
    pmf = None if args.pmf is None else _parse_values(args.pmf, f"--pmf {args.pmf!r}")
    alphabet = args.alphabet if args.alphabet is not None else (2 if pmf is None else len(pmf))
    if alphabet > ENUMERATION_CAP:
        raise CapacityError(f"alphabet of {alphabet} symbols exceeds cap {ENUMERATION_CAP}")
    if pmf is None:
        if alphabet < 2:
            raise ParameterDomainError(f"--alphabet must be at least 2, got {alphabet}")
        pmf = [1.0 / alphabet] * alphabet
    elif len(pmf) != alphabet:
        raise ConfigurationError(f"--pmf has {len(pmf)} entries but --alphabet is {alphabet}")
    from .discrete import verify_theorem5

    result = verify_theorem5(args.n, pmf)
    doc = {
        "config": {"n": args.n, "alphabet": alphabet, "pmf": pmf},
        "entropy_bits": result.entropy_bits,
        "levels": [asdict(lv) for lv in result.levels],
        "passed": result.passed,
    }
    _write_json(doc, args.out)
    print(f"construction check n={args.n}: {'PASS' if result.passed else 'FAIL'} -> {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    matrix = ingest_csv(args.input, transpose=args.transpose)
    report = run_estimate(
        matrix,
        _estimator_from_args(args, ts_lag=args.ts_lag),
        args.seed,
        order=args.order,
        time_series=args.time_series,
    )
    emit_report(report, args.out)
    values = (f"{_LEVEL_KEYS[lvl]}={_csv_num(est.bits)}" for lvl, est in report.levels.items())
    print(f"{', '.join(values)} bits -> {args.out}")
    return 0


def _cmd_sci(args) -> int:
    matrix = ingest_csv(args.input, transpose=args.transpose)
    i, j = _parse_pair(matrix, args.pair)
    cfg = _estimator_from_args(args)
    desc, t = _pair_sci(matrix.names, matrix.data, i, j, cfg, args.seed)
    verification = verify_sci(t, matrix, i, j, cfg)
    doc = {
        "seed": args.seed,
        "config": {
            "pair": [matrix.names[i], matrix.names[j]],
            "estimator": asdict(cfg),
            "bisection": _BISECTION,
        },
        "channels": list(matrix.names),
        "num_samples": matrix.n_samples,
        "descriptor": asdict(desc),
        "verification": {
            "delta_bits": verification.delta_bits,
            "passed": verification.passed,
            # each check names its channel, in place of the index
            "checks": [
                {**{k: v for k, v in asdict(c).items() if k != "name"}, "channel": c.name}
                for c in verification.checks
            ],
        },
    }
    _write_json(doc, args.out)
    print(
        f"tuned noise variance {_csv_num(desc.noise_variance)} in {desc.iterations} "
        f"iterations, verification {'PASS' if verification.passed else 'FAIL'} -> {args.out}"
    )
    return 0


def _cmd_lagscan(args) -> int:
    matrix = ingest_csv(args.input, transpose=args.transpose)
    ref = _channel(matrix, args.ref_channel)
    rate = args.sample_rate_hz
    if rate is None:  # the library's rule would name its parameter and speak of seconds
        raise ConfigurationError("lagscan needs --sample-rate-hz to place its millisecond window")
    window_s = (args.lag_min_ms / 1000.0, args.lag_max_ms / 1000.0)
    lag_min, lag_max = _lag_range_samples(*window_s, rate)
    meta = {
        "ref_channel": matrix.names[ref],
        "lag_range_samples": f"{lag_min},{lag_max}",
        "sample_rate_hz": _csv_num(rate),
    }
    rows = []
    for g in range(matrix.n_channels):
        if g == ref:
            continue
        res = lag_max_correlation(matrix.data[ref], matrix.data[g], *window_s, rate)
        lag_ms = _csv_num(res.lag_seconds * 1000.0)
        rows.append(f"{matrix.names[g]},{res.lag_samples},{lag_ms},{_csv_num(res.abs_corr)}")
    _write_csv(args.out, meta, LAGSCAN_HEADER, rows)
    print(f"scanned lags {lag_min}..{lag_max} samples for {matrix.n_channels - 1} channels -> {args.out}")
    return 0


# ------------------------------------------------------------------ parser

class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each flag's default to its help, except a default of None,
    whose help states the real default where there is one."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def _add_io_flags(sub, needs_input: bool = True) -> None:
    if needs_input:
        sub.add_argument("--input", required=True, help="channel CSV (rows=time, header of names)")
        sub.add_argument(
            "--transpose",
            action="store_true",
            help="input rows are channels, first cell the channel name, no header",
        )
    sub.add_argument("--out", required=True, help="output file path")


def _add_estimator_flags(sub) -> None:
    sub.add_argument(
        "--estimator",
        choices=sorted(_ESTIMATOR_NAMES),
        default="gaussian",
        help="MI estimator",
    )
    sub.add_argument("--k", type=int, default=EstimatorConfig.k, help="neighbor count (knn)")
    sub.add_argument("--bins", type=int, default=EstimatorConfig.bins, help="bins per axis (binned)")
    sub.add_argument("--seed", type=int, default=0, help="run seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoci",
        description="Higher-order common information: closed forms, exact discrete "
        "checks, and noise-injection estimation.",
        formatter_class=_HelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"hoci {__version__}")
    subs = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=partial(argparse.ArgumentParser, formatter_class=_HelpFormatter),
    )

    g = subs.add_parser("gaussian", help="closed-form curve table over (rho, sigma_n2)")
    g.add_argument("--sigma-x2", type=float, default=1.0, help="source variance")
    g.add_argument(
        "--sigma-n2-grid", default="5", help="noise variance grid: 'a,b,c' or lo:hi:num[:log]"
    )
    g.add_argument(
        "--rho-grid", default="-0.95:0.95:191", help="noise correlation grid, same syntax"
    )
    _add_io_flags(g, needs_input=False)
    g.set_defaults(func=_cmd_gaussian)

    d = subs.add_parser("discrete", help="exact check of the discrete construction")
    d.add_argument("--n", type=int, default=4, help="number of variables")
    d.add_argument("--alphabet", type=int, help="base alphabet size (default: len(--pmf), else 2)")
    d.add_argument("--pmf", default=None, help="base pmf 'p0,p1,...' (default: uniform)")
    _add_io_flags(d, needs_input=False)
    d.set_defaults(func=_cmd_discrete)

    e = subs.add_parser("estimate", help="common-information report from sampled channels")
    _add_io_flags(e)
    _add_estimator_flags(e)
    e.add_argument("--order", type=int, choices=SUPPORTED_ORDERS, default=3, help="highest level")
    e.add_argument(
        "--time-series",
        action="store_true",
        help="use the bidirectional lag-embedded estimator for pairwise terms",
    )
    e.add_argument(
        "--ts-lag", type=int, default=EstimatorConfig.ts_lag, help="time-series embedding lag, samples"
    )
    e.set_defaults(func=_cmd_estimate)

    s = subs.add_parser("sci", help="tune + verify one noise-injection variable")
    _add_io_flags(s)
    _add_estimator_flags(s)
    s.add_argument("--pair", required=True, help="channel pair 'name,name'")
    s.set_defaults(func=_cmd_sci)

    l = subs.add_parser("lagscan", help="max |correlation| over a lag range, per channel")
    _add_io_flags(l)
    l.add_argument("--ref-channel", required=True, help="reference channel name")
    lag_min_ms, lag_max_ms = (s * 1000.0 for s in _LAG_WINDOW_S)
    l.add_argument("--lag-min-ms", type=float, default=lag_min_ms, help="smallest lag, ms")
    l.add_argument("--lag-max-ms", type=float, default=lag_max_ms, help="largest lag, ms")
    l.add_argument("--sample-rate-hz", type=float, default=None, help="sample rate, Hz (no default)")
    l.set_defaults(func=_cmd_lagscan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HociError as err:
        print(json.dumps({"error": err.code, "message": str(err)}), file=sys.stderr)
        return 1
    except OSError as err:
        print(json.dumps({"error": "io_error", "message": str(err)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
