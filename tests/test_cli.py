"""Command line layer: CSV ingestion, grid parsing, the five subcommands,
report serialization, and error reporting."""

import csv
import filecmp
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from hoci import (
    CapacityError,
    ConfigurationError,
    GaussianEnsembleSpec,
    IngestionError,
    cond_mi_xi_xj_given_xk,
    lag_max_correlation,
    mi_xi_xj,
    r3_lower,
    r4_lower,
    run_estimate,
    sample_ensemble,
)
from hoci import (
    ChannelMatrix,
    CommonInfoReport,
    EstimatorConfig,
    LevelEstimate,
)
from hoci.cli import (
    CURVE_HEADER,
    LAGSCAN_HEADER,
    _csv_num,
    emit_gaussian_curves,
    emit_report,
    ingest_csv,
    main,
    parse_grid,
)
from hoci.discrete import ENUMERATION_CAP
from hoci.ingest import _BLOCK_CHARS, _MIN_PART_BYTES, _parse


def write_csv(path, names, data):
    rows = [",".join(names)]
    for t in range(data.shape[1]):
        rows.append(",".join(repr(float(v)) for v in data[:, t]))
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def ensemble_csv(tmp_path_factory):
    m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=3), 2000, seed=1)
    path = tmp_path_factory.mktemp("data") / "ensemble.csv"
    return write_csv(path, m.names, m.data)


@pytest.fixture(scope="module")
def independent_csv(tmp_path_factory):
    data = np.random.default_rng(2).standard_normal((3, 2000))
    path = tmp_path_factory.mktemp("data") / "indep.csv"
    return write_csv(path, ("a", "b", "c"), data)


@pytest.fixture(scope="module")
def ensemble4_csv(tmp_path_factory):
    m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=4), 2000, seed=3)
    path = tmp_path_factory.mktemp("data") / "ensemble4.csv"
    return write_csv(path, m.names, m.data)


REPORT_KEYS = [
    "tool", "version", "seed", "config", "channels", "num_samples",
    "r2", "r3_lower", "r4_lower", "rbar", "rtilde", "chain", "sci", "exclusions",
]
LEVEL_KEYS = {2: ("r2", "pair"), 3: ("r3_lower", "triple"), 4: ("r4_lower", "quadruple")}


def stderr_code(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)["error"]


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _no_fork():
    pytest.fail("forked where a rows file is parsed in one part")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def parts(monkeypatch):
    """One usable CPU: every file is parsed in this process."""
    _use_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", _no_fork)
    yield
    _assert_no_child()


@pytest.mark.usefixtures("parts")
class TestIngestion:
    def test_reads_and_standardizes(self, ensemble_csv):
        m = ingest_csv(ensemble_csv)
        assert m.names == ("x1", "x2", "x3")
        assert m.n_samples == 2000
        assert np.allclose(m.data.mean(axis=1), 0.0, atol=1e-9)
        assert np.allclose(m.data.std(axis=1), 1.0, atol=1e-6)

    def test_transpose_orientation_matches(self, tmp_path, ensemble_csv):
        m = ingest_csv(ensemble_csv)
        lines = [
            name + "," + ",".join(repr(float(v)) for v in row)
            for name, row in zip(m.names, m.data)
        ]
        tpath = tmp_path / "t.csv"
        tpath.write_text("\n".join(lines) + "\n")
        t = ingest_csv(str(tpath), transpose=True)
        assert t.names == m.names
        # standardizing a standardized matrix only re-centers float dust
        assert np.allclose(t.data, m.data, atol=1e-12)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((2, 40))
        body = ["# a comment", "x,y", ""]
        body += [f"{float(data[0, t])!r},{float(data[1, t])!r}" for t in range(40)]
        p = tmp_path / "c.csv"
        p.write_text("\n".join(body) + "\n")
        m = ingest_csv(str(p))
        assert m.names == ("x", "y")
        assert m.n_samples == 40

    def test_non_numeric_cell_names_location(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((2, 40))
        rows = ["u,v"] + [f"{float(data[0, t])!r},{float(data[1, t])!r}" for t in range(40)]
        rows[5] = rows[5].split(",")[0] + ",oops"
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match=r"row 6.*'v'"):
            ingest_csv(str(p))

    def test_non_finite_cell_rejected(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((2, 40))
        rows = ["u,v"] + [f"{float(data[0, t])!r},{float(data[1, t])!r}" for t in range(40)]
        rows[3] = "nan," + rows[3].split(",")[1]
        p = tmp_path / "nan.csv"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match=r"row 4.*'u'"):
            ingest_csv(str(p))

    def test_ragged_row_rejected(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((2, 40))
        rows = ["u,v"] + [f"{float(data[0, t])!r},{float(data[1, t])!r}" for t in range(40)]
        rows[7] = rows[7] + ",1.0"
        p = tmp_path / "ragged.csv"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match="row 8"):
            ingest_csv(str(p))

    def test_duplicate_and_empty_names_rejected(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((2, 40))
        rows = ["u,u"] + [f"{data[0, t]!r},{data[1, t]!r}" for t in range(40)]
        p = tmp_path / "dup.csv"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match="duplicate"):
            ingest_csv(str(p))
        p2 = tmp_path / "empty.csv"
        p2.write_text("\n".join(["u,"] + rows[1:]) + "\n")
        with pytest.raises(IngestionError):
            ingest_csv(str(p2))

    def test_too_few_samples(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((2, 10))
        p = tmp_path / "short.csv"
        with pytest.raises(IngestionError, match="at least 32"):
            ingest_csv(write_csv(p, ("u", "v"), data))

    def test_constant_column(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((2, 40))
        data[1] = 3.0
        p = tmp_path / "const.csv"
        with pytest.raises(IngestionError, match="v"):
            ingest_csv(write_csv(p, ("u", "v"), data))

    def test_transposed_errors_name_row_and_channel(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((3, 40))
        rows = [f"{name}," + ",".join(repr(float(v)) for v in row)
                for name, row in zip("uvw", data)]
        bad = list(rows)
        bad[1] = bad[1].replace(repr(float(data[1, 5])), "oops", 1)
        p = tmp_path / "bad_t.csv"
        p.write_text("\n".join(bad) + "\n")
        with pytest.raises(IngestionError, match=r"row 2, column 'v': non-numeric cell 'oops'"):
            ingest_csv(str(p), transpose=True)
        ragged = list(rows)
        ragged[2] += ",1.0"
        p.write_text("\n".join(ragged) + "\n")
        with pytest.raises(IngestionError, match="row 3 has 41 samples; expected 40"):
            ingest_csv(str(p), transpose=True)

    def test_quoted_numeric_cells_parse(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((2, 40))
        rows = ['"u","v"'] + [f'"{float(a)!r}",{float(b)!r}' for a, b in data.T]
        p = tmp_path / "quoted.csv"
        p.write_text("\n".join(rows) + "\n")
        m = ingest_csv(str(p))
        assert m.names == ("u", "v")
        plain = ingest_csv(write_csv(tmp_path / "plain.csv", ("u", "v"), data))
        assert np.array_equal(m.data, plain.data)

    def test_first_bad_cell_in_file_order_is_reported(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((2, 40))
        rows = ["u,v"] + [f"{float(data[0, t])!r},{float(data[1, t])!r}" for t in range(40)]
        rows[3] = rows[3].split(",")[0] + ",inf"
        rows[9] = "oops," + rows[9].split(",")[1]
        p = tmp_path / "two_bad.csv"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match=r"row 4, column 'v': non-finite cell 'inf'"):
            ingest_csv(str(p))

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "header.csv"
        p.write_text("u,v\n")
        with pytest.raises(IngestionError, match="at least 32"):
            ingest_csv(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            ingest_csv(str(tmp_path / "nope.csv"))

    def test_comment_only_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("# nothing\n\n")
        with pytest.raises(IngestionError, match="no data rows"):
            ingest_csv(str(p))

    def test_transposed_names_without_cells(self, tmp_path):
        # each quoted name runs to the end of its line, so no row has a cell
        p = tmp_path / "names_only.csv"
        p.write_text('"u"\n"v, w"\n')
        with pytest.raises(IngestionError, match=r"names_only\.csv: a row has no cells$"):
            ingest_csv(str(p), transpose=True)


def _reference_parse(path, transpose=False):
    """The csv.reader + np.array parse that ingest_csv's loadtxt call
    replaced: names, and a samples-by-channels float array."""
    with open(path, newline="") as fh:
        numbered = [
            row
            for row in csv.reader(fh)
            if row
            and not all(c.strip() == "" for c in row)
            and not row[0].lstrip().startswith("#")
        ]
    if transpose:
        names = [row[0].strip() for row in numbered]
        return tuple(names), np.array([row[1:] for row in numbered], dtype=np.float64).T
    names = [c.strip() for c in numbered[0]]
    return tuple(names), np.array(numbered[1:], dtype=np.float64)


def _reference_ingest(path, transpose=False):
    names, samples = _reference_parse(path, transpose)
    # standardized from the default orientation's layout
    return ChannelMatrix(names=names, data=np.ascontiguousarray(samples).T).standardized()


def _write_channels(path, names, cells, transpose, newline="\n", extra=()):
    """Write a cell grid (channels x samples of strings) in either orientation;
    ``extra`` holds (line index, text) pairs inserted afterwards."""
    if transpose:
        lines = [f"{name},{','.join(row)}" for name, row in zip(names, cells)]
    else:
        lines = [",".join(names)] + [",".join(col) for col in zip(*cells)]
    for pos, text in extra:
        lines.insert(pos, text)
    path.write_bytes((newline.join(lines) + newline).encode())
    return str(path)


def _cells(n_channels, n_samples=40, seed=0):
    data = np.random.default_rng(seed).standard_normal((n_channels, n_samples))
    return [[repr(float(v)) for v in row] for row in data]


@pytest.mark.usefixtures("parts")
class TestLoadtxtParse:
    """ingest_csv's one-pass body parse reads what the csv.reader parse read."""

    NAMES = ("u", "v", "w")

    def _check(self, path, transpose):
        m = ingest_csv(path, transpose=transpose)
        ref = _reference_ingest(path, transpose)
        assert m.names == ref.names
        assert np.array_equal(m.data, ref.data)
        return m

    @pytest.mark.parametrize("transpose", [False, True])
    def test_crlf_line_endings(self, tmp_path, transpose):
        path = _write_channels(tmp_path / "crlf.csv", self.NAMES, _cells(3), transpose, "\r\n")
        self._check(path, transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_comment_lines_in_body(self, tmp_path, transpose):
        extra = [(2, "# a comment mid-body"), (1, "   # an indented comment"), (0, "\t#x,1,2")]
        path = _write_channels(tmp_path / "c.csv", self.NAMES, _cells(3), transpose, extra=extra)
        self._check(path, transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_blank_and_all_comma_lines(self, tmp_path, transpose):
        extra = [(2, ""), (1, "   "), (3, ",,"), (0, " , ,\t"), (2, '"",""')]
        path = _write_channels(tmp_path / "b.csv", self.NAMES, _cells(3), transpose, extra=extra)
        self._check(path, transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_quoted_cells_and_names(self, tmp_path, transpose):
        cells = _cells(3)
        for row in cells:
            row[::3] = [f'"{c}"' for c in row[::3]]
        names = ('"u"', '"v,1"', '"w""2"')
        m = self._check(_write_channels(tmp_path / "q.csv", names, cells, transpose), transpose)
        assert m.names == ("u", "v,1", 'w"2')

    @pytest.mark.parametrize("transpose", [False, True])
    def test_whitespace_around_numbers(self, tmp_path, transpose):
        cells = [[f" {c}\t" if t % 2 else f"  {c}" for t, c in enumerate(row)] for row in _cells(3)]
        names = (" u", "v ", "\tw")
        m = self._check(_write_channels(tmp_path / "s.csv", names, cells, transpose), transpose)
        assert m.names == self.NAMES

    @pytest.mark.parametrize("transpose", [False, True])
    def test_number_syntax(self, tmp_path, transpose):
        cells = _cells(3)
        cells[0][:6] = ["+1", ".5", "5.", "1E3", "-.25", "2e-3"]
        cells[2][10:13] = ["1e+2", "+0.", "-7E-1"]
        self._check(_write_channels(tmp_path / "n.csv", self.NAMES, cells, transpose), transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_one_column(self, tmp_path, transpose):
        m = self._check(_write_channels(tmp_path / "one.csv", ("u",), _cells(1), transpose), transpose)
        assert m.data.shape == (1, 40)

    def test_orientations_agree_bit_for_bit(self, tmp_path):
        cells = _cells(3, n_samples=500, seed=4)
        rows = ingest_csv(_write_channels(tmp_path / "r.csv", self.NAMES, cells, False))
        cols = ingest_csv(_write_channels(tmp_path / "t.csv", self.NAMES, cells, True), transpose=True)
        assert np.array_equal(rows.data, cols.data)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("cell", ["1_000", "\uff11", "\u0663.5"])
    def test_numpy_syntax_rejects_underscores_and_non_ascii_digits(self, tmp_path, transpose, cell):
        cells = _cells(3)
        cells[1][4] = cell
        path = _write_channels(tmp_path / "u.csv", self.NAMES, cells, transpose)
        row = 2 if transpose else 6
        with pytest.raises(IngestionError, match=rf"row {row}, column 'v': non-numeric cell '{cell}'"):
            ingest_csv(path, transpose=transpose)

    def test_header_only_and_comment_only_raise_without_warnings(self, tmp_path):
        header = tmp_path / "header.csv"
        header.write_text("u,v\n# nothing more\n")
        comment = tmp_path / "comment.csv"
        comment.write_text("# nothing\n\n  ,  \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestionError, match="at least 32"):
                ingest_csv(str(header))
            for transpose in (False, True):
                with pytest.raises(IngestionError, match="no data rows"):
                    ingest_csv(str(comment), transpose=transpose)

    # a transposed file has no header row, so its body is the whole file
    EMPTY_BODIES = {
        "header-only": [],
        "all-blank": ["", "   ", "\t", "\u00a0"],
        "comment-only": ["# c", "  #x,1", '"# quoted",1', ",,"],
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("body", EMPTY_BODIES)
    def test_empty_body_fails_with_one_json_line(self, tmp_path, capsys, transpose, body):
        lines = ([] if transpose else ["u,v"]) + self.EMPTY_BODIES[body]
        path = tmp_path / "empty.csv"
        path.write_text("".join(line + "\n" for line in lines))
        # rows: the header's names over an empty (0, 2) body
        message = "contains no data rows" if transpose else "at least 32 samples per channel, got 0"
        with pytest.raises(IngestionError, match=message):
            ingest_csv(str(path), transpose=transpose)
        out = tmp_path / "out.json"
        argv = ["estimate", "--input", str(path), "--out", str(out)]
        assert main(argv + ["--transpose"] * transpose) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ingestion"
        assert message in json.loads(err[0])["message"]
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_zero_byte_rows_file_fails_with_one_json_line(self, tmp_path, capsys):
        # no header line at all, unlike the empty bodies above
        path = tmp_path / "zero.csv"
        path.write_bytes(b"")
        with pytest.raises(IngestionError, match="contains no data rows"):
            ingest_csv(str(path))
        out = tmp_path / "out.json"
        assert main(["estimate", "--input", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        message = f"{path} contains no data rows"
        assert json.loads(err[0]) == {"error": "ingestion", "message": message}
        assert not out.exists()

    def test_quoted_cell_across_a_line_break(self, tmp_path):
        # loadtxt reads a quoted cell on past its line break, as csv.reader does
        lines = ["u,v"] + [",".join(col) for col in zip(*_cells(2))]
        lines[5:6] = ['"1', '",2']  # sample 5 is the cell "1\n" and then 2
        path = tmp_path / "q.csv"
        path.write_text("\n".join(lines) + "\n")
        assert self._check(str(path), False).n_samples == 40

    @pytest.mark.parametrize("cell, kind", [("nan", "non-finite"), ("-inf", "non-finite"), ("x", "non-numeric")])
    def test_bad_cell_in_the_last_row(self, tmp_path, cell, kind):
        cells = _cells(3)
        cells[2][-1] = cell
        path = _write_channels(tmp_path / "l.csv", self.NAMES, cells, False)
        with pytest.raises(IngestionError, match=rf"row 41, column 'w': {kind} cell '{cell}'"):
            ingest_csv(path)

    @staticmethod
    def _record_parses(monkeypatch) -> list[bool]:
        """The ``raw`` flag of every ``_parse`` call in this process."""
        calls = []

        def recorded(fh, transpose, raw):
            calls.append(raw)
            return _parse(fh, transpose, raw)

        monkeypatch.setattr("hoci.ingest._parse", recorded)
        return calls

    def test_a_non_finite_cell_in_the_last_range_is_not_parsed_again(self, tmp_path, monkeypatch):
        # the matrix refuses the parsed body and the re-read names the cell,
        # so no range is parsed a second time with every line filtered
        cells = _cells(3)
        cells[1][-1] = "inf"
        path = _write_channels(tmp_path / "i.csv", self.NAMES, cells, False)
        calls = self._record_parses(monkeypatch)
        with pytest.raises(IngestionError, match=r"row 41, column 'v': non-finite cell 'inf'"):
            ingest_csv(path)
        assert False not in calls

    @pytest.mark.parametrize("transpose", [False, True])
    def test_a_bad_name_over_a_parsed_body_is_not_read_again(self, tmp_path, monkeypatch, transpose):
        path = _write_channels(tmp_path / "d.csv", ("u", "u", "w"), _cells(3), transpose)
        monkeypatch.setattr("hoci.ingest._raise_bad_input", lambda *args: pytest.fail("read again"))
        where = "rows" if transpose else "columns"
        with pytest.raises(IngestionError, match=rf"duplicate channel name 'u' \({where} 1 and 2\)"):
            ingest_csv(path, transpose=transpose)

    def test_rows_wider_than_the_header_are_named(self, tmp_path, monkeypatch, parts):
        # in one part the matrix refuses the parsed body; in parts, putting
        # the rows together does, and the body is parsed once more, filtered
        lines = ["u,v,w"] + [f"{t},1,2,3" for t in range(40)]
        path = tmp_path / "wide.csv"
        path.write_text("".join(line + "\n" for line in lines))
        calls = self._record_parses(monkeypatch)
        with pytest.raises(IngestionError, match="row 2 has 4 cells; expected 3"):
            ingest_csv(str(path))
        assert calls.count(False) == (0 if parts is None else 1)

    def test_rows_wider_than_the_header_from_mid_body(self, tmp_path, parts):
        # twelve lines of one length: split in 2 or 3 parts, the last part
        # starts at line 7 or 9 and holds only wide rows, which parse alone
        wide_from = 9 if parts == 3 else 7
        lines = ["u,v,w   "] + [f"{t:02d},1,2{',3' if t >= wide_from else '  '}" for t in range(1, 12)]
        path = tmp_path / "wide.csv"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(IngestionError, match=f"row {wide_from + 1} has 4 cells; expected 3"):
            ingest_csv(str(path))

    def test_every_row_narrower_than_header(self, tmp_path):
        path = _write_channels(tmp_path / "w.csv", ("u", "v", "w", "x"), _cells(3), False)
        with pytest.raises(IngestionError, match="row 2 has 3 cells; expected 4"):
            ingest_csv(path)

    def test_transposed_row_without_samples(self, tmp_path):
        path = _write_channels(tmp_path / "e.csv", self.NAMES, _cells(3), True, extra=[(1, "z")])
        with pytest.raises(IngestionError, match="row 2 has 0 samples; expected 40"):
            ingest_csv(path, transpose=True)

    def test_undecodable_file_is_ingestion_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"u,v\n\xff1,2\n")
        with pytest.raises(IngestionError, match="cannot read"):
            ingest_csv(str(path))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_standardized_rows_are_contiguous(self, tmp_path, transpose):
        path = _write_channels(tmp_path / "k.csv", self.NAMES, _cells(3), transpose)
        assert ingest_csv(path, transpose=transpose).data.flags.c_contiguous

    # files of more than one _BLOCK_CHARS: every skipped line, anywhere in a
    # large body, must read as the one-pass parse did

    @staticmethod
    def _samples_past(blocks, n_channels):
        """A sample count whose cells fill ``blocks`` read blocks."""
        return int(blocks * _BLOCK_CHARS / (20 * n_channels)) + 1

    @pytest.mark.parametrize("transpose", [False, True])
    def test_skipped_lines_spread_over_blocks(self, tmp_path, transpose):
        cells = _cells(3, self._samples_past(2.5, 3), seed=1)
        for t in range(0, len(cells[0]), 1013):  # quoted first cells open data lines
            cells[0][t] = f'"{cells[0][t]}"'
        kinds = ["# comment", "", "   ", ",,", " , ,\t", '"",""', '"# quoted comment",1', "\t#x,1"]
        n_lines = 3 if transpose else len(cells[0]) + 1
        extra = [(pos, kinds[i % len(kinds)]) for i, pos in enumerate(range(n_lines, -1, -997))]
        if transpose:
            extra = [(pos, text) for pos in range(n_lines, -1, -1) for text in kinds]
        path = _write_channels(tmp_path / "s.csv", self.NAMES, cells, transpose, extra=extra)
        assert os.path.getsize(path) > 2 * _BLOCK_CHARS
        self._check(path, transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_crlf_over_blocks(self, tmp_path, transpose):
        cells = _cells(3, self._samples_past(2.5, 3), seed=2)
        path = _write_channels(tmp_path / "crlf.csv", self.NAMES, cells, transpose, "\r\n")
        assert os.path.getsize(path) > 2 * _BLOCK_CHARS
        self._check(path, transpose)

    def test_transposed_line_longer_than_a_block(self, tmp_path):
        cells = _cells(2, self._samples_past(1.5, 1), seed=3)
        path = _write_channels(tmp_path / "long.csv", ("u", "v"), cells, True, extra=[(1, "# c")])
        assert min(len(",".join(row)) for row in cells) > _BLOCK_CHARS
        m = self._check(path, True)
        assert m.data.shape == (2, len(cells[0]))

    def test_bad_cell_past_the_first_block_names_its_file_row(self, tmp_path):
        cells = _cells(3, self._samples_past(2.5, 3), seed=4)
        sample = len(cells[0]) - 100
        cells[2][sample] = "oops"
        extra = [(5, "# comment"), (5, ""), (9, ",,")]  # three lines before the bad one
        path = _write_channels(tmp_path / "bad.csv", self.NAMES, cells, False, extra=extra)
        with open(path, "rb") as fh:
            assert fh.read().index(b"oops") > _BLOCK_CHARS
        row = sample + 2 + 3  # after the header and the three inserted lines
        with pytest.raises(IngestionError, match=rf"row {row}, column 'w': non-numeric cell 'oops'"):
            ingest_csv(path)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_undecodable_byte_past_the_first_block(self, tmp_path, transpose):
        cells = _cells(3, self._samples_past(2.5, 3), seed=5)
        cells[0][3] = "oops"  # a bad cell ahead of the byte does not win
        path = tmp_path / "latin1.csv"
        _write_channels(path, self.NAMES, cells, transpose)
        raw = path.read_bytes()
        cut = raw.index(b",", 2 * _BLOCK_CHARS)
        path.write_bytes(raw[:cut] + b",\xff1" + raw[cut:])
        with pytest.raises(IngestionError, match="cannot read"):
            ingest_csv(str(path), transpose=transpose)

    @pytest.mark.parametrize("where", ["first block", "past the second", "cut at the end"])
    def test_undecodable_byte_is_named_by_its_file_offset(self, tmp_path, where):
        # a two-byte name: the offset counts bytes, not characters
        cells = _cells(3, self._samples_past(2.5, 3), seed=7)
        path = tmp_path / "bad.csv"
        _write_channels(path, ("\u00fc", "v", "w"), cells, False)
        raw = path.read_bytes()
        if where == "cut at the end":  # the first two bytes of a three-byte character
            cut, bad, what = len(raw), b"\xe2\x82", rf"bytes in position {len(raw)}-{len(raw) + 1}"
        else:
            cut = raw.index(b",", 1000 if where == "first block" else 2 * _BLOCK_CHARS + 1)
            bad, what = b"\xff", rf"byte 0xff in position {cut}"
        path.write_bytes(raw[:cut] + bad + raw[cut:])
        with pytest.raises(IngestionError, match=rf"cannot read .*: 'utf-8' codec can't decode {what}: "):
            ingest_csv(str(path))

    # the skip rule strips Unicode whitespace, as str.lstrip and str.strip do
    UNICODE_SKIPPED = [
        "\u00a0# after a no-break space",
        "\u3000#x,1,2",
        "\x0c# after a form feed",
        '"\u00a0#quoted",1',
        "\u00a0",
        "\u3000\x0c\u00a0",
        "\u00a0,\u3000,\x0c",
    ]

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("block_chars", [7, 50, _BLOCK_CHARS])
    def test_unicode_whitespace_lines_read_as_the_reference(
        self, tmp_path, monkeypatch, transpose, block_chars
    ):
        monkeypatch.setattr("hoci.ingest._BLOCK_CHARS", block_chars)
        kinds = self.UNICODE_SKIPPED
        cells = _cells(3, 40 if block_chars < 100 else self._samples_past(1.5, 3), seed=8)
        if transpose:  # every kind before and after every channel line
            extra = [(pos, text) for pos in range(3, -1, -1) for text in kinds]
        else:
            step = 1 if block_chars < 100 else 499
            positions = range(len(cells[0]) + 1, -1, -step)
            extra = [(pos, kinds[i % len(kinds)]) for i, pos in enumerate(positions)]
        path = _write_channels(tmp_path / "u.csv", self.NAMES, cells, transpose, extra=extra)
        if block_chars == _BLOCK_CHARS and not transpose:
            assert os.path.getsize(path) > _BLOCK_CHARS
        self._check(path, transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("kind", UNICODE_SKIPPED)
    def test_skipped_line_at_either_end_of_the_body(self, tmp_path, transpose, where, kind):
        # rows: a first body line is passed over while the first data line is
        # found; a last one fails the unfiltered parse, so the file is read
        # again with every line filtered
        cells = _cells(3, seed=9)
        clean = _write_channels(tmp_path / "clean.csv", self.NAMES, cells, transpose)
        pos = {"first": 0 if transpose else 1, "last": 3 if transpose else 41}[where]
        path = _write_channels(tmp_path / "k.csv", self.NAMES, cells, transpose, extra=[(pos, kind)])
        want = ingest_csv(clean, transpose=transpose)
        got = ingest_csv(path, transpose=transpose)
        assert got.names == want.names
        assert np.array_equal(got.data, want.data)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_with_a_skipped_last_line(self, tmp_path):
        # a pipe is read once, so its body cannot fall back to a second read
        cells = _cells(3, seed=10)
        path = _write_channels(tmp_path / "f.csv", self.NAMES, cells, False, extra=[(41, "# last")])
        text = (tmp_path / "f.csv").read_bytes()
        read_end, write_end = os.pipe()
        try:
            assert os.write(write_end, text) == len(text)  # within the pipe's buffer
            os.close(write_end)
            got = ingest_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert np.array_equal(got.data, ingest_csv(path).data)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("transpose", [False, True])
    def test_pipe_with_a_bad_last_cell(self, tmp_path, capsys, transpose):
        # the pipe reads empty the second time, so the error is the parse's own
        cells = _cells(2, 100, seed=11)
        cells[1][-1] = "x"
        path = _write_channels(tmp_path / "f.csv", ("a", "b"), cells, transpose)
        text = (tmp_path / "f.csv").read_bytes()
        out = tmp_path / "o.json"
        read_end, write_end = os.pipe()
        try:
            assert os.write(write_end, text) == len(text)  # within the pipe's buffer
            os.close(write_end)
            flags = ["--transpose"] if transpose else []
            rc = main(["estimate", "--input", f"/dev/fd/{read_end}", *flags, "--out", str(out)])
        finally:
            os.close(read_end)
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ingestion"
        assert not out.exists()
        # the file itself is read again, and its bad cell named
        assert main(["estimate", "--input", path, *flags, "--out", str(out)]) == 1
        assert "non-numeric cell 'x'" in json.loads(capsys.readouterr().err)["message"]

    # bodies the matrix refuses; a pipe reads empty the second time, so
    # that refusal is the message
    MATRIX_REFUSALS = {
        "non-finite": (
            [f"{t},{t % 3}" for t in range(39)] + ["39,inf"],
            "channel data contains non-finite entries",
        ),
        "wide rows": ([f"{t},{t % 3},1" for t in range(40)], "2 names for 3 channel rows"),
    }

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("body", MATRIX_REFUSALS)
    def test_pipe_refused_by_the_matrix(self, body):
        rows, message = self.MATRIX_REFUSALS[body]
        text = "".join(line + "\n" for line in ["a,b", *rows]).encode()
        read_end, write_end = os.pipe()
        try:
            assert os.write(write_end, text) == len(text)  # within the pipe's buffer
            os.close(write_end)
            with pytest.raises(IngestionError, match=f"^/dev/fd/{read_end}: {message}$"):
                ingest_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    def test_memory_is_a_small_multiple_of_the_matrix(self, tmp_path):
        # a few megabytes of CSV; numpy reports its buffers to tracemalloc
        cells = _cells(8, 40_000, seed=6)
        path = _write_channels(tmp_path / "m.csv", tuple("abcdefgh"), cells, False)
        ingest_csv(path)  # first-call allocations are not the parse's
        tracemalloc.start()
        try:
            m = ingest_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert os.path.getsize(path) > 2 * m.data.nbytes
        # 3.5x measured; a reader that holds the file's text reads 9.9x
        assert peak < 5 * m.data.nbytes

    def test_memory_of_a_body_without_skipped_lines(self, tmp_path):
        # loadtxt reads such a body straight from the file: 2.13x measured,
        # against 3.11x when every line went through the skip rule in Python
        cells = _cells(8, 40_000, seed=6)
        path = _write_channels(tmp_path / "m.csv", tuple("abcdefgh"), cells, False)
        ingest_csv(path)  # first-call allocations are not the parse's
        tracemalloc.start()
        try:
            m = ingest_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * m.data.nbytes


class _InParts:
    """A rows file of any size parsed in 2 and in 3 forked parts."""

    @pytest.fixture(params=[2, 3], ids=["2 parts", "3 parts"])
    def parts(self, request, monkeypatch):
        monkeypatch.setattr("hoci.ingest._MIN_PART_BYTES", 1)
        _use_cpus(monkeypatch, request.param)
        yield request.param
        _assert_no_child()


class TestIngestionInParts(_InParts, TestIngestion):
    pass


class TestLoadtxtParseInParts(_InParts, TestLoadtxtParse):
    def test_each_part_after_the_first_is_forked(self, tmp_path, monkeypatch, parts):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        path = _write_channels(tmp_path / "p.csv", self.NAMES, _cells(3), False)
        self._check(path, False)
        assert len(forks) == parts - 1

    @pytest.mark.parametrize("failing", [1, 2])
    def test_a_part_that_cannot_start_leaves_the_parse_to_this_process(
        self, tmp_path, monkeypatch, parts, failing
    ):
        # the fork that fails is the first or the second; a child already started is stopped
        forks, fork = [], os.fork

        def fork_until_failing():
            forks.append(1)
            if len(forks) == failing:
                raise OSError("no process for a part")
            return fork()

        monkeypatch.setattr(os, "fork", fork_until_failing)
        path = _write_channels(tmp_path / "f.csv", self.NAMES, _cells(3), False)
        self._check(path, False)
        assert len(forks) == min(failing, parts - 1)

    def test_an_interrupted_parse_kills_and_reaps_every_child(self, tmp_path, monkeypatch, parts):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        statuses, waitpid = [], os.waitpid

        def recorded_waitpid(pid, options):
            reaped = waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        # each child is still at work when this process is interrupted
        monkeypatch.setattr("hoci.ingest._send_part", lambda *args: (time.sleep(60), os._exit(0)))
        monkeypatch.setattr("hoci.ingest._parse", interrupted)
        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        path = _write_channels(tmp_path / "i.csv", self.NAMES, _cells(3), False)
        with pytest.raises(KeyboardInterrupt):
            ingest_csv(path)
        assert len(statuses) == parts - 1
        assert all(os.WIFSIGNALED(s) and os.WTERMSIG(s) == signal.SIGKILL for s in statuses)


@pytest.mark.parametrize("cpus, n_samples", [(1, 40_000), (4, 30_000)], ids=["one CPU", "small file"])
def test_one_cpu_or_a_small_file_parses_in_one_part(tmp_path, monkeypatch, cpus, n_samples):
    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, "fork", _no_fork)
    path = _write_channels(tmp_path / "s.csv", ("u", "v", "w"), _cells(3, n_samples, seed=12), False)
    # a second part would hold less than _MIN_PART_BYTES only in the small file
    assert _MIN_PART_BYTES < os.path.getsize(path)
    assert (os.path.getsize(path) < 2 * _MIN_PART_BYTES) == (cpus > 1)
    assert np.array_equal(ingest_csv(path).data, _reference_ingest(path).data)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_a_child_ends_when_its_parent_dies(tmp_path):
    # the parent is killed while its child parses; the child's rows overfill
    # the pipe, and its write must fail rather than wait for a reader
    path = _write_channels(tmp_path / "d.csv", ("u", "v", "w"), _cells(3, 20_000, seed=13), False)
    script = (
        "import os, signal, sys, time\n"
        "import hoci.ingest as ingest\n"
        "send = ingest._send_part\n"
        "def recorded(*args):\n"
        "    open(sys.argv[2] + '.tmp', 'w').write(str(os.getpid()))\n"
        "    os.replace(sys.argv[2] + '.tmp', sys.argv[2])\n"
        "    send(*args)\n"
        "def killed(*args, **kwargs):\n"
        "    while not os.path.exists(sys.argv[2]):\n"
        "        time.sleep(0.01)\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "ingest._send_part = recorded\n"
        "ingest._parse = killed\n"
        "ingest._MIN_PART_BYTES = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "ingest.ingest_csv(sys.argv[1])\n"
    )
    pid_file = tmp_path / "child.pid"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script, path, str(pid_file)], env=env, timeout=60)
    assert proc.returncode == -signal.SIGKILL
    child = int(pid_file.read_text())
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{child}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    break
        except FileNotFoundError:
            break
        time.sleep(0.05)
    else:
        os.kill(child, signal.SIGKILL)
        pytest.fail("the child outlived its parent")


def _pipe_main(text: bytes, argv) -> tuple[int, str]:
    """``main(argv)`` with ``/dev/fd/N`` for a pipe holding ``text``, whose
    writer has closed; the exit code and the pipe's path."""
    read_end, write_end = os.pipe()
    try:
        assert os.write(write_end, text) == len(text)  # within the pipe's buffer
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        return main([*argv, "--input", path]), path
    finally:
        os.close(read_end)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("transpose", [False, True])
def test_an_undecodable_byte_in_a_pipe_is_named_without_a_second_read(tmp_path, capsys, transpose):
    # the position is counted in the reader's block, here the pipe's first
    _write_channels(tmp_path / "f.csv", ("a", "b"), _cells(2, 100, seed=14), transpose)
    raw = (tmp_path / "f.csv").read_bytes()
    cut = raw.index(b",", 1000) + 1
    out = tmp_path / "o.json"
    flags = ["--transpose"] if transpose else []
    rc, path = _pipe_main(raw[:cut] + b"\xff" + raw[cut:], ["estimate", *flags, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1
    message = f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position {cut}: invalid start byte"
    assert json.loads(err[0]) == {"error": "ingestion", "message": message}
    assert not out.exists()


@pytest.mark.skipif(not (hasattr(os, "mkfifo") and os.path.isdir("/dev/fd")), reason="needs FIFOs")
def test_a_fifo_with_a_bad_cell_is_read_once(tmp_path, capsys):
    # the writer closes right after writing, so a second open of the FIFO would wait for ever
    cells = _cells(2, 100, seed=15)
    cells[1][-1] = "x"
    _write_channels(tmp_path / "f.csv", ("a", "b"), cells, False)
    text = (tmp_path / "f.csv").read_bytes()
    fifo, out = tmp_path / "in.fifo", tmp_path / "o.json"
    os.mkfifo(fifo)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    argv = [sys.executable, "-m", "hoci", "estimate", "--input", str(fifo), "--out", str(out)]
    proc = subprocess.Popen(argv, stderr=subprocess.PIPE, text=True, env=env)
    try:
        deadline = time.monotonic() + 30
        while True:  # a FIFO opens for writing once its reader has opened it
            try:
                fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError:
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.01)
        os.set_blocking(fd, True)
        with open(fd, "wb") as fh:
            fh.write(text)
        err = proc.communicate(timeout=30)[1]
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    assert len(err.splitlines()) == 1
    assert not out.exists()
    # the parse's own message, as for the same text through a /dev/fd pipe
    rc, path = _pipe_main(text, ["estimate", "--out", str(out)])
    piped = json.loads(capsys.readouterr().err)
    assert (rc, piped["error"]) == (1, "ingestion")
    assert json.loads(err) == {"error": "ingestion", "message": piped["message"].replace(path, str(fifo), 1)}


@pytest.fixture(scope="module")
def big_csvs(tmp_path_factory):
    """The CSVs of the CI steps on multi-block and forked-part ingest: 4
    channels of 120,000 samples in every layout, and big-lf with its last
    cell made non-numeric (big-bad) or non-finite (big-inf)."""
    d = tmp_path_factory.mktemp("big")
    g = np.random.default_rng(11)
    data = g.standard_normal((4, 120_000)) + g.standard_normal(120_000)
    names = ["a", "b", "c", "d"]
    rows = [",".join(map(repr, s)) for s in data.T.tolist()]
    sprinkled = [x for t, r in enumerate(rows) for x in ((r, "# comment", "") if t % 7919 == 0 else (r,))]
    files = {
        "big-lf": ("\n", [",".join(names)] + rows),
        "big-lf-tail": ("\n", [",".join(names)] + rows + ["# last line"]),
        "big-crlf": ("\r\n", ["# seeded multi-block input", ",".join(names), ""] + sprinkled),
        "big-cols": ("\n", [k + "," + ",".join(map(repr, r)) for k, r in zip(names, data.tolist())]),
    }
    for name, (newline, lines) in files.items():
        (d / f"{name}.csv").write_bytes((newline.join(lines) + newline).encode())
    text = (d / "big-lf.csv").read_bytes()
    for name, cell in (("big-bad", b"x"), ("big-inf", b"inf")):
        (d / f"{name}.csv").write_bytes(text[: text.rindex(b",")] + b"," + cell + b"\n")
    return d


class TestCiIngestSteps:
    """The CI steps "Multi-block CSVs give byte-identical reports in every
    layout" and "Rows CSVs parsed in forked parts read as on one CPU", on
    their inputs and with their checks, in this process: two usable CPUs
    parse a rows file in two forked parts, one CPU in one process."""

    @staticmethod
    def _estimate(capsys, monkeypatch, cpus, path, out, *flags):
        """Exit code, stderr and forks of ``hoci estimate --order 2`` on ``cpus`` usable CPUs."""
        _use_cpus(monkeypatch, cpus)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        rc = main(["estimate", "--order", "2", *flags, "--input", str(path), "--out", str(out)])
        _assert_no_child()
        return rc, capsys.readouterr().err, len(forks)

    def test_multi_block_csvs_give_byte_identical_reports_in_every_layout(
        self, big_csvs, tmp_path, monkeypatch, capsys
    ):
        for name in ("big-lf", "big-crlf", "big-lf-tail", "big-cols"):
            flags = ["--transpose"] if name == "big-cols" else []
            run = self._estimate(capsys, monkeypatch, 2, big_csvs / f"{name}.csv", tmp_path / f"{name}.json", *flags)
            assert run[0] == 0, run
        for name in ("big-crlf", "big-lf-tail", "big-cols"):
            assert filecmp.cmp(tmp_path / "big-lf.json", tmp_path / f"{name}.json", shallow=False), name

    @pytest.mark.parametrize("name", ["big-lf", "big-crlf", "big-lf-tail", "big-bad", "big-inf"])
    def test_rows_csvs_parsed_in_forked_parts_read_as_on_one_cpu(
        self, big_csvs, tmp_path, monkeypatch, capsys, name
    ):
        outs = {cpus: tmp_path / f"{name}-{cpus}.json" for cpus in (2, 1)}
        parts, one_cpu = (
            self._estimate(capsys, monkeypatch, cpus, big_csvs / f"{name}.csv", outs[cpus]) for cpus in (2, 1)
        )
        assert (parts[2], one_cpu[2]) == (1, 0)
        assert parts[:2] == one_cpu[:2]
        rc, err, _ = parts
        if name in ("big-bad", "big-inf"):
            cell = "non-numeric cell 'x'" if name == "big-bad" else "non-finite cell 'inf'"
            assert rc == 1
            assert len(err.splitlines()) == 1
            assert cell in err
            assert not outs[2].exists()
        else:
            assert rc == 0
            assert filecmp.cmp(outs[2], outs[1], shallow=False)


class TestCiReportSteps:
    """The CI steps "Gaussian levels do not depend on column order", "binned
    reports on values at bin edges match across orientations and reruns",
    "Reports do not depend on a power-of-two input scale" and "A byte-order
    mark is not part of the first channel name", on their inputs and with
    their checks, in this process."""

    @staticmethod
    def _estimate(path, out, *flags):
        assert main(["estimate", *flags, "--input", str(path), "--out", str(out)]) == 0
        return out

    def test_gaussian_levels_do_not_depend_on_column_order(self, parity_input, tmp_path):
        # gaussian_logdet reads every level off the sample correlations and draws no noise
        with open(parity_input.rows, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        permuted = tmp_path / "permuted.csv"
        with open(permuted, "w", newline="") as fh:
            csv.writer(fh).writerows([r[2], r[0], r[3], r[1]] for r in rows)
        levels = []
        for path in (parity_input.rows, permuted):
            doc = json.loads(self._estimate(path, tmp_path / "order.json", "--order", "4").read_text())
            # each level: its bits and its witness channel set (pair, triple or quadruple)
            levels.append({
                key: (doc[key]["bits"], {c for f, v in doc[key].items() if f != "bits" for c in v})
                for key in ("r2", "r3_lower", "r4_lower")
            })
        assert levels[0] == levels[1], levels

    def test_binned_reports_on_values_at_bin_edges_match_across_orientations_and_reruns(self, tmp_path):
        # three ternary base symbols; each channel is the radix-3 place value of two of them,
        # so every value is an integer in [0, 8] and lies on an edge of 128 equal-width bins
        z = np.random.default_rng(13).integers(0, 3, size=(3, 20_000))
        d = np.array([z[a] + 3 * z[b] for a, b in ((0, 1), (1, 2), (2, 0), (1, 0))])
        names = ["a", "b", "c", "d"]
        rows, cols = tmp_path / "edges-rows.csv", tmp_path / "edges-cols.csv"
        rows.write_text("\n".join([",".join(names)] + [",".join(map(str, s)) for s in d.T.tolist()]) + "\n")
        cols.write_text("\n".join(k + "," + ",".join(map(str, r)) for k, r in zip(names, d.tolist())) + "\n")
        flags = ["--estimator", "binned", "--bins", "128", "--order", "4"]
        report = self._estimate(rows, tmp_path / "edges-rows.json", *flags)
        transposed = self._estimate(cols, tmp_path / "edges-cols.json", "--transpose", *flags)
        rerun = self._estimate(rows, tmp_path / "edges-rerun.json", *flags)
        assert filecmp.cmp(report, transposed, shallow=False)
        assert filecmp.cmp(report, rerun, shallow=False)
        # a and d code each other's bins: their targets, the carrier's entropy, are the only ones
        # the search does not reach
        ex = json.loads(report.read_text())["exclusions"]
        assert [(e["pair"], e["code"]) for e in ex] == [(["a", "d"], "convergence"), (["d", "a"], "convergence")], ex

    @pytest.mark.parametrize(
        "flags",
        [["--estimator", "gaussian"], ["--estimator", "binned"], ["--estimator", "knn"], ["--time-series"]],
        ids=["gaussian", "binned", "knn", "time-series"],
    )
    def test_reports_do_not_depend_on_a_power_of_two_input_scale(self, parity_input, tmp_path, flags):
        # every column statistic out of float64's range is taken again on the column times a power of two
        reports = {}
        for k in (0, -700, 540, 700):
            path = tmp_path / f"scaled{k}.csv"
            scaled = np.ldexp(parity_input.data, k).T.tolist()
            path.write_text("\n".join(["a,b,c,d"] + [",".join(map(repr, s)) for s in scaled]) + "\n")
            reports[k] = self._estimate(path, tmp_path / f"scaled{k}.json", "--order", "3", *flags)
        for k in (-700, 540, 700):
            assert filecmp.cmp(reports[0], reports[k], shallow=False), k

    def test_a_byte_order_mark_is_not_part_of_the_first_channel_name(self, parity_input, tmp_path):
        # a spreadsheet's "CSV UTF-8" export opens the file with U+FEFF
        bom = tmp_path / "rows-bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + parity_input.rows.read_bytes())
        plain = self._estimate(parity_input.rows, tmp_path / "plain3.json", "--order", "3")
        assert filecmp.cmp(plain, self._estimate(bom, tmp_path / "bom3.json", "--order", "3"), shallow=False)


class TestParseGrid:
    def test_value_list(self):
        assert parse_grid("1, 2,3").tolist() == [1.0, 2.0, 3.0]

    def test_linear_range(self):
        g = parse_grid("0:1:5")
        assert g.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_log_range(self):
        g = parse_grid("1e-3:1e3:61:log")
        assert g.size == 61
        assert g[0] == pytest.approx(1e-3)
        assert g[-1] == pytest.approx(1e3)
        ratios = g[1:] / g[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_single_point(self):
        assert parse_grid("5:5:1").tolist() == [5.0]

    @pytest.mark.parametrize(
        "bad",
        ["", " ,", "1:2", "1:2:0", "1:2:x", "0:1:5:log", "1:2:3:cubic", "a,b", "1,,2", "1,2,"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_grid(bad)

    def test_point_count_is_capped(self):
        assert parse_grid(f"0:1:{ENUMERATION_CAP}").size == ENUMERATION_CAP
        for num in (ENUMERATION_CAP + 1, 10**11):
            with pytest.raises(CapacityError, match=f"{num} points exceed cap"):
                parse_grid(f"0:1:{num}")


class TestGaussianCommand:
    def test_curve_file_shape(self, tmp_path):
        out = tmp_path / "curves.csv"
        rc = main(
            [
                "gaussian",
                "--sigma-n2-grid", "1,5",
                "--rho-grid", "0:0.5:3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert comments  # the sweep configuration is recorded
        assert body[0] == CURVE_HEADER
        assert len(body) == 1 + 3 * 2
        for row in body[1:]:
            cells = row.split(",")
            assert len(cells) == 8
            r2, r3, r4 = (float(c) for c in cells[5:])
            assert r4 <= r3 <= r2

    def test_divergent_rows_say_inf(self, tmp_path):
        out = tmp_path / "div.csv"
        main(
            [
                "gaussian",
                "--sigma-n2-grid", "1",
                "--rho-grid", "0,1",
                "--out", str(out),
            ]
        )
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        last = body[-1].split(",")
        assert last[0] == "1.0"
        assert last[5] == "inf"  # pairwise value diverges at rho = 1

    def test_undefined_conditional_says_nan(self, tmp_path):
        out = tmp_path / "nan.csv"
        main(
            [
                "gaussian",
                "--sigma-n2-grid", "10000",
                "--rho-grid", "-0.9",
                "--out", str(out),
            ]
        )
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[1].split(",")[4] == "nan"


    def test_higher_order_cells_need_their_model(self, tmp_path):
        # three observations need rho >= -1/2, four need rho >= -1/3
        out = tmp_path / "models.csv"
        rc = main(
            ["gaussian", "--sigma-n2-grid", "5", "--rho-grid=-0.95,-0.6,-0.4,-0.3", "--out", str(out)]
        )
        assert rc == 0
        body = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert [[math.isnan(float(row[c])) for c in (4, 6, 7)] for row in body[1:]] == [
            [True, True, True],
            [True, True, True],
            [False, False, True],
            [False, False, False],
        ]
        assert all(math.isfinite(float(c)) for row in body[1:] for c in row[:4] + row[5:6])
        spec = GaussianEnsembleSpec(1.0, 5.0, -0.3, n=4)
        assert [float(c) for c in body[4][4:]] == [
            cond_mi_xi_xj_given_xk(spec), mi_xi_xj(spec), r3_lower(spec), r4_lower(spec)
        ]

    @pytest.mark.parametrize(
        "grids",
        [
            ["--rho-grid", "0:0.5:100000000000"],
            ["--sigma-n2-grid", f"1:5:{ENUMERATION_CAP + 1}"],
            # 101 x 9901 = 10^6 + 1 rows from two grids within the cap
            ["--rho-grid", "0:0.5:101", "--sigma-n2-grid", "1:5:9901"],
        ],
        ids=["grid-1e11", "grid-cap+1", "table-cap+1"],
    )
    def test_oversized_grid_or_table_is_capacity(self, tmp_path, capsys, grids):
        out = tmp_path / "curves.csv"
        assert main(["gaussian", *grids, "--out", str(out)]) == 1
        assert stderr_code(capsys) == "capacity"
        assert not out.exists()

    def test_empty_grid_is_a_configuration_error(self, tmp_path):
        out = tmp_path / "curves.csv"
        with pytest.raises(ConfigurationError, match="non-empty rho and sigma_n2 grids"):
            emit_gaussian_curves([], [1.0], str(out))
        assert not out.exists()


class TestDiscreteCommand:
    def test_verification_report(self, tmp_path, capsys):
        out = tmp_path / "disc.json"
        rc = main(["discrete", "--n", "4", "--alphabet", "2", "--out", str(out)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["config"]["n"] == 4
        assert [lv["level"] for lv in doc["levels"]] == [2, 3, 4]

    def test_explicit_pmf(self, tmp_path):
        out = tmp_path / "disc.json"
        rc = main(
            ["discrete", "--n", "3", "--alphabet", "2", "--pmf", "0.25,0.75", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["entropy_bits"] == pytest.approx(0.8112781244591328)

    def test_alphabet_defaults_to_the_pmf_length(self, tmp_path):
        out = tmp_path / "disc.json"
        rc = main(["discrete", "--n", "3", "--pmf", "0.2,0.3,0.5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["alphabet"] == 3
        assert doc["passed"] is True

    def test_pmf_length_mismatch(self, tmp_path, capsys):
        out = tmp_path / "disc.json"
        rc = main(
            ["discrete", "--n", "3", "--alphabet", "3", "--pmf", "0.5,0.5", "--out", str(out)]
        )
        assert rc == 1
        assert stderr_code(capsys) == "configuration"

    @pytest.mark.parametrize("pmf", ["0.25:0.25:4", "0.5,,0.5"], ids=["grid", "empty-entry"])
    def test_pmf_takes_only_its_list_syntax(self, tmp_path, capsys, pmf):
        out = tmp_path / "disc.json"
        assert main(["discrete", "--n", "3", "--pmf", pmf, "--out", str(out)]) == 1
        assert stderr_code(capsys) == "configuration"
        assert not out.exists()

    @pytest.mark.parametrize("alphabet", ["0", "1"])
    def test_alphabet_below_two_is_parameter_domain(self, tmp_path, capsys, alphabet):
        out = tmp_path / "disc.json"
        rc = main(["discrete", "--n", "3", "--alphabet", alphabet, "--out", str(out)])
        assert rc == 1
        assert stderr_code(capsys) == "parameter_domain"

    def test_n_beyond_level_cap_is_capacity(self, tmp_path, capsys):
        out = tmp_path / "disc.json"
        rc = main(["discrete", "--n", "30", "--out", str(out)])
        assert rc == 1
        assert stderr_code(capsys) == "capacity"
        assert not out.exists()

    @pytest.mark.parametrize("alphabet", [ENUMERATION_CAP + 1, 10**10])
    def test_alphabet_beyond_the_cap_is_capacity(self, tmp_path, capsys, alphabet):
        out = tmp_path / "disc.json"
        rc = main(["discrete", "--n", "3", "--alphabet", str(alphabet), "--out", str(out)])
        assert rc == 1
        assert stderr_code(capsys) == "capacity"
        assert not out.exists()


class TestEstimateCommand:
    def test_report_structure(self, ensemble_csv, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(
            [
                "estimate",
                "--input", ensemble_csv,
                "--estimator", "gaussian",
                "--order", "3",
                "--seed", "4",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["tool"] == "hoci"
        assert doc["seed"] == 4
        assert doc["channels"] == ["x1", "x2", "x3"]
        assert doc["num_samples"] == 2000
        assert doc["config"]["estimator"]["method"] == "gaussian_logdet"
        assert doc["config"]["order"] == 3
        assert doc["r2"]["bits"] > 0.2
        assert doc["r3_lower"]["bits"] <= doc["r2"]["bits"] + doc["chain"]["slack_bits"]
        assert doc["chain"]["ok"] is True
        assert set(doc["rbar"]) == {"2", "3"}
        assert doc["sci"] == []  # gaussian r3 is read off the correlations
        assert doc["exclusions"] == []

    @pytest.mark.parametrize("layout", ["rows", "transposed", "comment first"])
    def test_byte_order_mark_is_not_part_of_a_name(self, ensemble_csv, tmp_path, layout):
        # a spreadsheet's "CSV UTF-8" export opens the file with U+FEFF
        data = ingest_csv(ensemble_csv).data
        names = ("a", "b", "c")
        if layout == "transposed":
            lines = [k + "," + ",".join(map(repr, row)) for k, row in zip(names, data.tolist())]
        else:
            lines = [",".join(names), *(",".join(map(repr, s)) for s in data.T.tolist())]
            if layout == "comment first":
                lines.insert(0, "# a comment line")
        text = "\n".join(lines) + "\n"
        outputs = []
        for tag, prefix in (("plain", ""), ("bom", "\ufeff")):
            path, out = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
            path.write_text(prefix + text, encoding="utf-8")
            flags = ["--transpose"] if layout == "transposed" else []
            assert main(["estimate", *flags, "--input", str(path), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert json.loads(outputs[1])["channels"] == list(names)
        assert outputs[1] == outputs[0]

    def test_byte_identical_reruns(self, ensemble_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["estimate", "--input", ensemble_csv, "--seed", "4", "--out"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert filecmp.cmp(a, b, shallow=False)

    def test_seed_is_the_flag_alone(self, ensemble_csv, tmp_path, monkeypatch, capsys):
        # the environment is not read: the seed is 0 unless --seed says otherwise
        monkeypatch.setenv("HOCI_SEED", "7")
        out = tmp_path / "rep.json"
        assert main(["estimate", "--input", ensemble_csv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 0
        out.unlink()
        capsys.readouterr()
        args = ["estimate", "--input", ensemble_csv, "--seed", "-1", "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "configuration"
        assert not out.exists()

    def test_order_two(self, independent_csv, tmp_path):
        out = tmp_path / "o2.json"
        rc = main(
            ["estimate", "--input", independent_csv, "--order", "2", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["r3_lower"] is None
        assert doc["r4_lower"] is None
        assert doc["sci"] == []

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_report_layout_at_every_order(self, ensemble4_csv, tmp_path, order):
        out = tmp_path / "rep.json"
        args = ["estimate", "--input", ensemble4_csv, "--order", str(order), "--out", str(out)]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        assert list(doc) == REPORT_KEYS
        assert list(doc["config"]) == ["order", "time_series", "estimator", "bisection"]
        assert doc["config"]["order"] == order
        for level, (key, witness) in LEVEL_KEYS.items():
            if level > order:
                assert doc[key] is None
            else:
                assert list(doc[key]) == ["bits", witness]
                assert len(doc[key][witness]) == level
        assert set(doc["rbar"]) == ({"2", "3"} if order >= 3 else {"2"})
        assert list(doc["rtilde"]) == [str(lvl) for lvl in range(2, order + 1)]

    def test_tiny_finite_input_is_accepted(self, tmp_path):
        # squared deviations of 1e-200 underflow; the channels are not constant
        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=4), 2000, seed=3)
        docs = []
        for tag, scale in (("unit", 1.0), ("tiny", 1e-200)):
            path = write_csv(tmp_path / f"{tag}.csv", m.names, m.data * scale)
            out = tmp_path / f"{tag}.json"
            assert main(["estimate", "--input", path, "--order", "3", "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        for key, witness in (("r2", "pair"), ("r3_lower", "triple")):
            assert docs[1][key][witness] == docs[0][key][witness]
            assert docs[1][key]["bits"] == pytest.approx(docs[0][key]["bits"], abs=1e-9)

    def test_binned_pairwise_grid_too_large(self, ensemble_csv, tmp_path, capsys):
        out = tmp_path / "big.json"
        args = ["estimate", "--input", ensemble_csv, "--estimator", "binned", "--out", str(out)]
        assert main([*args, "--bins", "2049"]) == 1
        assert stderr_code(capsys) == "configuration"
        assert not out.exists()

    def test_binned_time_series_grid_too_large(self, ensemble_csv, tmp_path, capsys):
        out = tmp_path / "big.json"
        rc = main(
            [
                "estimate",
                "--input", ensemble_csv,
                "--estimator", "binned",
                "--time-series",
                "--bins", "100000",
                "--ts-lag", "4",
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert stderr_code(capsys) == "configuration"
        assert not out.exists()

    def test_knn_estimator_flags(self, ensemble_csv, tmp_path):
        out = tmp_path / "knn.json"
        rc = main(
            [
                "estimate",
                "--input", ensemble_csv,
                "--estimator", "knn",
                "--order", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["estimator"]["method"] == "knn"
        assert doc["config"]["estimator"]["k"] == 4

    def test_independent_channels_zero_bound(self, independent_csv, tmp_path):
        out = tmp_path / "z.json"
        rc = main(["estimate", "--input", independent_csv, "--order", "3", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["r3_lower"]["bits"] == 0.0
        assert doc["r3_lower"]["reason"]
        assert all(e["code"] == "no_common_information" for e in doc["exclusions"])


class TestSciCommand:
    def test_build_and_verify(self, ensemble_csv, tmp_path, capsys):
        out = tmp_path / "sci.json"
        rc = main(
            ["sci", "--input", ensemble_csv, "--pair", "x1,x2", "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["config"]["pair"] == ["x1", "x2"]
        desc = doc["descriptor"]
        assert desc["order"] == 2
        assert desc["noise_variance"] > 0
        assert desc["residual"] < 1e-3
        assert doc["verification"]["passed"] is True
        assert len(doc["verification"]["checks"]) == 3

    def test_descriptor_matches_the_estimate_run(self, ensemble_csv, tmp_path):
        # one surrogate recipe: the pair's descriptor equals that of a run
        # that samples surrogates; a gaussian_logdet run samples none
        out = tmp_path / "sci.json"
        args = ["sci", "--input", ensemble_csv, "--pair", "x1,x2", "--seed", "2", "--out", str(out)]
        assert main(args + ["--estimator", "binned"]) == 0
        matrix = ingest_csv(ensemble_csv)
        rep = run_estimate(matrix, EstimatorConfig(method="binned"), seed=2, order=3)
        (desc,) = [d for d in rep.sci_descriptors if (d.partner_channel, d.base_channel) == (0, 1)]
        assert json.loads(out.read_text())["descriptor"] == asdict(desc)
        assert run_estimate(matrix, seed=2, order=3).sci_descriptors == ()

    def test_a_numeric_token_is_a_name_in_both_commands(self, ensemble_csv, tmp_path):
        path = write_csv(tmp_path / "digits.csv", ("2", "1", "0"), ingest_csv(ensemble_csv).data)
        sci, scan = tmp_path / "sci.json", tmp_path / "scan.csv"
        assert main(["sci", "--input", path, "--pair", "0,1", "--out", str(sci)]) == 0
        assert json.loads(sci.read_text())["config"]["pair"] == ["0", "1"]
        window = ["--sample-rate-hz", "1000", "--lag-min-ms", "0", "--lag-max-ms", "5"]
        assert main(["lagscan", "--input", path, "--ref-channel", "0", *window, "--out", str(scan)]) == 0
        lines = scan.read_text().splitlines()
        assert "# ref_channel: 0" in lines
        assert [line.split(",")[0] for line in lines[-2:]] == ["2", "1"]

    def test_no_shared_information_fails_cleanly(self, independent_csv, tmp_path, capsys):
        out = tmp_path / "sci.json"
        rc = main(["sci", "--input", independent_csv, "--pair", "a,b", "--out", str(out)])
        assert rc == 1
        assert stderr_code(capsys) == "no_common_information"

    def test_pair_validation(self, ensemble_csv, tmp_path, capsys):
        out = tmp_path / "sci.json"
        assert main(["sci", "--input", ensemble_csv, "--pair", "x1,x1", "--out", str(out)]) == 1
        assert stderr_code(capsys) == "configuration"

    def test_a_pair_names_two_channels(self, ensemble_csv, tmp_path, capsys):
        out = tmp_path / "sci.json"
        assert main(["sci", "--input", ensemble_csv, "--pair", "x1,x2,x3", "--out", str(out)]) == 1
        assert stderr_code(capsys) == "configuration"
        assert not out.exists()

    def test_checks_name_their_channel(self, ensemble_csv, tmp_path):
        out = tmp_path / "sci.json"
        assert main(["sci", "--input", ensemble_csv, "--pair", "x1,x2", "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["verification"]["checks"]
        assert [c["channel"] for c in checks] == ["x1", "x2", "x3"]
        assert all(
            list(c) == ["channel", "mi_with_t_bits", "bound_bits", "margin_bits", "passed"]
            for c in checks
        )


@pytest.fixture(scope="module")
def lag_csv(tmp_path_factory):
    rng = np.random.default_rng(5)
    stim = rng.standard_normal(2000)
    delayed = np.roll(stim, 25) + 0.3 * rng.standard_normal(2000)
    other = rng.standard_normal(2000)
    path = tmp_path_factory.mktemp("lag") / "lag.csv"
    return write_csv(path, ("stim", "resp", "noise"), np.array([stim, delayed, other]))


class TestLagscanCommand:
    def test_finds_delay_in_ms_window(self, lag_csv, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(
            [
                "lagscan",
                "--input", lag_csv,
                "--ref-channel", "stim",
                "--lag-min-ms", "190",
                "--lag-max-ms", "300",
                "--sample-rate-hz", "100",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == LAGSCAN_HEADER
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        assert set(rows) == {"resp", "noise"}
        assert rows["resp"][1] == "25"
        assert float(rows["resp"][2]) == pytest.approx(250.0)
        assert float(rows["resp"][3]) > 0.9
        assert float(rows["noise"][3]) < 0.1

    @pytest.mark.parametrize(
        "rate, window_ms, flags",
        [
            ("100", (190.0, 300.0), []),
            ("333.3", (10.0, 400.0), ["--lag-min-ms", "10", "--lag-max-ms", "400"]),
        ],
        ids=["default-window", "off-grid-rate"],
    )
    def test_rows_are_the_library_scan(self, lag_csv, tmp_path, rate, window_ms, flags):
        out = tmp_path / "scan.csv"
        argv = ["lagscan", "--input", lag_csv, "--ref-channel", "stim", "--sample-rate-hz", rate]
        assert main([*argv, *flags, "--out", str(out)]) == 0
        matrix = ingest_csv(lag_csv)
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        assert [name for name, *_ in rows] == ["resp", "noise"]
        lag_min_s, lag_max_s = (ms / 1000 for ms in window_ms)
        for name, lag_samples, lag_ms, abs_corr in rows:
            channel = matrix.data[matrix.names.index(name)]
            res = lag_max_correlation(matrix.data[0], channel, lag_min_s, lag_max_s, float(rate))
            assert int(lag_samples) == res.lag_samples
            assert lag_ms == _csv_num(res.lag_seconds * 1000.0)
            assert abs_corr == _csv_num(res.abs_corr)

    def test_ms_window_requires_rate(self, lag_csv, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(
            ["lagscan", "--input", lag_csv, "--ref-channel", "stim", "--out", str(out)]
        )
        assert rc == 1
        assert stderr_code(capsys) == "configuration"

    def test_missing_rate_names_the_flag(self, lag_csv, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["lagscan", "--input", lag_csv, "--ref-channel", "stim", "--out", str(out)])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert rc == 1 and err["error"] == "configuration"
        # the flag, not the library's parameter, and no window in seconds
        assert "--sample-rate-hz" in err["message"] and "sample_rate_hz" not in err["message"]
        assert "in seconds" not in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["0", "-100", "nan", "inf"])
    def test_non_positive_rate_rejected(self, lag_csv, tmp_path, capsys, rate):
        out = tmp_path / "scan.csv"
        rc = main(
            [
                "lagscan",
                "--input", lag_csv,
                "--ref-channel", "stim",
                "--lag-min-ms", "19",
                "--lag-max-ms", "30",
                "--sample-rate-hz", rate,
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert stderr_code(capsys) == "configuration"
        assert not out.exists()

    def test_a_window_that_leaves_fewer_than_ten_samples_is_refused(self, tmp_path, capsys):
        # two independent 32-sample channels: lag 30 leaves two samples, and any two correlate perfectly
        path = write_csv(tmp_path / "short.csv", ("stim", "eeg"), np.random.default_rng(3).standard_normal((2, 32)))
        out = tmp_path / "scan.csv"
        rc = main(["lagscan", "--input", path, "--ref-channel", "stim", "--sample-rate-hz", "100", "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "degenerate_input", "message": "series of length 32 too short for max lag 30"}
        assert not out.exists()

    def test_infinite_rate_rejected_in_ms_mode(self, lag_csv, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(
            [
                "lagscan",
                "--input", lag_csv,
                "--ref-channel", "stim",
                "--lag-min-ms", "190",
                "--lag-max-ms", "300",
                "--sample-rate-hz", "inf",
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert stderr_code(capsys) == "configuration"
        assert not out.exists()


class TestReportSerialization:
    @pytest.mark.parametrize("estimator", ["gaussian", "binned"])
    @pytest.mark.parametrize(
        "command", [["estimate"], ["sci", "--pair", "x1,x2"]], ids=["estimate", "sci"]
    )
    def test_reports_record_the_tuning_constants(self, ensemble_csv, tmp_path, command, estimator):
        out = tmp_path / "rep.json"
        args = [*command, "--input", ensemble_csv, "--estimator", estimator, "--out", str(out)]
        assert main(args) == 0
        bisection = json.loads(out.read_text())["config"]["bisection"]
        assert json.dumps(bisection) == '{"epsilon": 0.001, "max_iterations": 60}'

    @staticmethod
    def _report(r2_bits):
        return CommonInfoReport(
            levels={2: LevelEstimate(bits=r2_bits, channels=("a", "b"))},
            rbar={2: 0.5},
            rtilde={2: 0.5},
            estimator=EstimatorConfig(),
            seed=0,
            time_series=False,
            channel_names=("a", "b"),
            num_samples=1000,
        )

    def test_divergent_values_become_tagged_objects(self, tmp_path):
        out = tmp_path / "div.json"
        emit_report(self._report(math.inf), str(out))
        text = out.read_text()
        assert "Infinity" not in text  # bare JSON inf must never appear
        doc = json.loads(text)
        assert doc["r2"]["bits"] == {"divergent": True}

    def test_undefined_values_become_tagged_objects(self, tmp_path):
        out = tmp_path / "nan.json"
        emit_report(self._report(math.nan), str(out))
        doc = json.loads(out.read_text())
        assert doc["r2"]["bits"] == {"undefined": True}

    def test_finite_report_round_trips(self, tmp_path):
        out = tmp_path / "fin.json"
        emit_report(self._report(0.25), str(out))
        doc = json.loads(out.read_text())
        assert doc["r2"]["bits"] == 0.25
        assert doc["r2"]["pair"] == ["a", "b"]
        assert doc["r3_lower"] is None
        assert doc["rbar"] == {"2": 0.5}


class TestErrorReporting:
    def test_missing_input_is_machine_readable(self, tmp_path, capsys):
        rc = main(
            ["estimate", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.json")]
        )
        assert rc == 1
        assert stderr_code(capsys) == "ingestion"

    def test_bad_grid_reports_configuration(self, tmp_path, capsys):
        rc = main(
            [
                "gaussian",
                "--sigma-n2-grid", "x,y",
                "--rho-grid", "0",
                "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 1
        assert stderr_code(capsys) == "configuration"

    def test_unwritable_output_is_io_error(self, ensemble_csv, tmp_path, capsys):
        rc = main(
            [
                "estimate",
                "--input", ensemble_csv,
                "--order", "2",
                "--out", str(tmp_path / "missing-dir" / "o.json"),
            ]
        )
        assert rc == 1
        assert stderr_code(capsys) == "io_error"

    @pytest.mark.parametrize(
        "argv, code",
        [
            # 1e300 ms at 1e308 Hz overflows float64 in samples
            (["lagscan", "--ref-channel", "x1", "--sample-rate-hz", "1e308",
              "--lag-min-ms", "0", "--lag-max-ms", "1e300"], "parameter_domain"),
            (["estimate", "--seed", "-1"], "configuration"),
            (["discrete", "--alphabet", "1"], "parameter_domain"),
            (["gaussian", "--rho-grid", "nan"], "parameter_domain"),
            (["sci", "--pair", "0,0"], "configuration"),
            # a channel is its name: x1,x2,x3 has no channel "0"
            (["sci", "--pair", "0,2"], "configuration"),
        ],
        ids=["lagscan-overflow", "estimate-negative-seed", "discrete-alphabet-1",
             "gaussian-nan-rho", "sci-self-pair", "sci-index-pair"],
    )
    def test_each_subcommand_fails_with_one_json_line(
        self, ensemble_csv, tmp_path, capsys, argv, code
    ):
        out = tmp_path / "o.out"
        needs_input = argv[0] in ("estimate", "sci", "lagscan")
        rc = main([*argv, *(["--input", ensemble_csv] if needs_input else []), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == code
        assert not out.exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand_exits_with_usage(self):
        with pytest.raises(SystemExit):
            main([])



class TestHelpText:
    @pytest.mark.parametrize("command", ["discrete", "estimate"])
    def test_no_flag_reads_default_none(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "(default: None)" not in text
        # a flag's own statement of its default is kept, and so are real defaults
        if command == "discrete":
            assert "base alphabet size (default: len(--pmf), else 2) --pmf" in text
            assert "number of variables (default: 4)" in text
        else:
            assert "run seed (default: 0) --order" in text
            assert "bins per axis (binned) (default: 16)" in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--epsilon", "0.01"],
            ["estimate", "--max-iters", "5"],
            ["sci", "--pair", "x1,x2", "--epsilon", "0.01"],
            ["sci", "--pair", "x1,x2", "--max-iters", "10"],
            ["sci", "--pair", "x1,x2", "--ts-lag", "4"],
            ["lagscan", "--ref-channel", "x1", "--lag-min-samples", "0"],
            ["lagscan", "--ref-channel", "x1", "--lag-max-samples", "5"],
            ["estimate", "--k", "3"],
            ["sci", "--pair", "x1,x2", "--k", "3"],
            ["gaussian", "--sigma-x2", "1"],
        ],
        ids=["estimate-epsilon", "estimate-max-iters", "sci-epsilon", "sci-max-iters", "sci-ts-lag",
             "lagscan-lag-min-samples", "lagscan-lag-max-samples", "estimate-k", "sci-k",
             "gaussian-sigma-x2"],
    )
    def test_settings_no_caller_varies_are_not_flags(self, ensemble_csv, tmp_path, capsys, argv):
        out = tmp_path / "o.json"
        needs_input = argv[0] != "gaussian"
        with pytest.raises(SystemExit) as exc:
            main([*argv, *(["--input", ensemble_csv] if needs_input else []), "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert not out.exists()

class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        out = tmp_path / "curves.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "hoci",
                "gaussian",
                "--sigma-n2-grid", "1",
                "--rho-grid", "0,0.5",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_outputs_do_not_depend_on_the_locale(self, tmp_path):
        # a channel name outside ASCII reads and writes as UTF-8 under the C locale too
        data = np.random.default_rng(12).standard_normal((300, 3))
        lines = ["a,µV,c", *(",".join(map(repr, row)) for row in data.tolist())]
        path = tmp_path / "mu.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        locales = {
            "utf8": (["-X", "utf8=1"], {}),
            "c": (["-X", "utf8=0"], {"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "LANG": "C"}),
        }
        outputs = {}
        for tag, (flags, env) in locales.items():
            runs = {
                "json": ["estimate", "--order", "3"],
                "csv": ["lagscan", "--ref-channel", "a", "--sample-rate-hz", "1000", "--lag-min-ms", "0", "--lag-max-ms", "5"],
            }
            for ext, argv in runs.items():
                out = tmp_path / f"{tag}.{ext}"
                proc = subprocess.run(
                    [sys.executable, *flags, "-m", "hoci", *argv, "--input", str(path), "--out", str(out)],
                    capture_output=True,
                    env={**os.environ, **env},
                )
                assert proc.returncode == 0, proc.stderr
                outputs[tag, ext] = out.read_bytes()
        assert "µV".encode() in outputs["utf8", "csv"]
        for ext in ("json", "csv"):
            assert outputs["c", ext] == outputs["utf8", ext]

    def test_channel_tokens_do_not_depend_on_the_locale(self, tmp_path):
        # Python decodes argv with the locale's codec; a token is read back as UTF-8
        g = np.random.default_rng(13)
        data = g.standard_normal((300, 3)) + g.standard_normal((300, 1))  # a shared source
        lines = ["a,µV,c", *(",".join(map(repr, row)) for row in data.tolist())]
        path = tmp_path / "mu.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        locales = {
            "utf8": (["-X", "utf8=1"], {}),
            "c": (["-X", "utf8=0"], {"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "LANG": "C"}),
        }
        runs = {
            "csv": ["lagscan", "--ref-channel", "µV", "--sample-rate-hz", "1000", "--lag-min-ms", "0", "--lag-max-ms", "5"],
            "json": ["sci", "--pair", "a,µV"],
        }
        # main() called from Python under the C locale, with text no argument decodes to
        in_process = "import json, sys; from hoci.cli import main; sys.exit(main(json.load(open(sys.argv[1]))))"
        outputs = {}
        for tag, (flags, env) in {**locales, "c-main": locales["c"]}.items():
            for ext, argv in runs.items():
                out = tmp_path / f"{tag}.{ext}"
                argv = [*argv, "--input", str(path), "--out", str(out)]
                if tag == "c-main":
                    (tmp_path / "argv.json").write_text(json.dumps(argv))
                    command = ["-c", in_process, str(tmp_path / "argv.json")]
                else:
                    command = ["-m", "hoci", *argv]
                proc = subprocess.run(
                    [sys.executable, *flags, *command], capture_output=True, env={**os.environ, **env}
                )
                assert proc.returncode == 0, proc.stderr
                outputs[tag, ext] = out.read_bytes()
        assert "# ref_channel: µV".encode() in outputs["utf8", "csv"]
        for ext in runs:
            assert outputs["c", ext] == outputs["c-main", ext] == outputs["utf8", ext]
