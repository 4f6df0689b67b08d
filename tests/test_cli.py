"""Command line layer: CSV ingestion, grid parsing, seed resolution, the
five subcommands, report serialization, and error reporting."""

import filecmp
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from hoci import (
    ConfigurationError,
    GaussianEnsembleSpec,
    IngestionError,
    sample_ensemble,
)
from hoci import (
    BisectionConfig,
    CommonInfoReport,
    EstimatorConfig,
    LevelEstimate,
)
from hoci.cli import (
    CURVE_HEADER,
    LAGSCAN_HEADER,
    emit_report,
    ingest_csv,
    main,
    parse_grid,
    resolve_seed,
)


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


def stderr_code(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)["error"]


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
        ["", " ,", "1:2", "1:2:0", "1:2:x", "0:1:5:log", "1:2:3:cubic", "a,b"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_grid(bad)


class TestResolveSeed:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("HOCI_SEED", "7")
        assert resolve_seed(3) == 3

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("HOCI_SEED", "7")
        assert resolve_seed(None) == 7

    def test_default_zero(self, monkeypatch):
        monkeypatch.delenv("HOCI_SEED", raising=False)
        assert resolve_seed(None) == 0

    def test_invalid_values(self, monkeypatch):
        monkeypatch.setenv("HOCI_SEED", "many")
        with pytest.raises(ConfigurationError):
            resolve_seed(None)
        monkeypatch.delenv("HOCI_SEED", raising=False)
        with pytest.raises(ConfigurationError):
            resolve_seed(-1)


class TestGaussianCommand:
    def test_curve_file_shape(self, tmp_path):
        out = tmp_path / "curves.csv"
        rc = main(
            [
                "gaussian",
                "--sigma-x2", "1.0",
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
                "--sigma-x2", "1.0",
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
                "--sigma-x2", "0.1",
                "--sigma-n2-grid", "1000",
                "--rho-grid", "-0.9",
                "--out", str(out),
            ]
        )
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[1].split(",")[4] == "nan"


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

    def test_pmf_length_mismatch(self, tmp_path, capsys):
        out = tmp_path / "disc.json"
        rc = main(
            ["discrete", "--n", "3", "--alphabet", "3", "--pmf", "0.5,0.5", "--out", str(out)]
        )
        assert rc == 1
        assert stderr_code(capsys) == "configuration"

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
        assert len(doc["sci"]) == 6
        assert doc["exclusions"] == []

    def test_byte_identical_reruns(self, ensemble_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["estimate", "--input", ensemble_csv, "--seed", "4", "--out"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert filecmp.cmp(a, b, shallow=False)

    def test_env_seed_matches_flag(self, ensemble_csv, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.delenv("HOCI_SEED", raising=False)
        assert main(["estimate", "--input", ensemble_csv, "--seed", "9", "--out", str(a)]) == 0
        monkeypatch.setenv("HOCI_SEED", "9")
        assert main(["estimate", "--input", ensemble_csv, "--out", str(b)]) == 0
        assert filecmp.cmp(a, b, shallow=False)

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

    def test_knn_estimator_flags(self, ensemble_csv, tmp_path):
        out = tmp_path / "knn.json"
        rc = main(
            [
                "estimate",
                "--input", ensemble_csv,
                "--estimator", "knn",
                "--k", "3",
                "--order", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["estimator"]["method"] == "knn"
        assert doc["config"]["estimator"]["k"] == 3

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

    def test_numeric_pair(self, ensemble_csv, tmp_path):
        out = tmp_path / "sci.json"
        assert main(["sci", "--input", ensemble_csv, "--pair", "0,2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["pair"] == ["x1", "x3"]

    def test_no_shared_information_fails_cleanly(self, independent_csv, tmp_path, capsys):
        out = tmp_path / "sci.json"
        rc = main(["sci", "--input", independent_csv, "--pair", "a,b", "--out", str(out)])
        assert rc == 1
        assert stderr_code(capsys) == "no_common_information"

    def test_pair_validation(self, ensemble_csv, tmp_path, capsys):
        out = tmp_path / "sci.json"
        assert main(["sci", "--input", ensemble_csv, "--pair", "x1,x1", "--out", str(out)]) == 1
        assert stderr_code(capsys) == "configuration"


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

    def test_sample_window_without_rate(self, lag_csv, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(
            [
                "lagscan",
                "--input", lag_csv,
                "--ref-channel", "stim",
                "--lag-min-samples", "19",
                "--lag-max-samples", "30",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        assert rows["resp"][1] == "25"
        assert rows["resp"][2] == "nan"  # no rate, no millisecond conversion

    def test_ms_window_requires_rate(self, lag_csv, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(
            ["lagscan", "--input", lag_csv, "--ref-channel", "stim", "--out", str(out)]
        )
        assert rc == 1
        assert stderr_code(capsys) == "configuration"

    def test_one_sided_sample_window_rejected(self, lag_csv, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(
            [
                "lagscan",
                "--input", lag_csv,
                "--ref-channel", "stim",
                "--lag-min-samples", "19",
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert stderr_code(capsys) == "configuration"

    @pytest.mark.parametrize("rate", ["0", "-100", "nan", "inf"])
    def test_non_positive_rate_rejected(self, lag_csv, tmp_path, capsys, rate):
        out = tmp_path / "scan.csv"
        rc = main(
            [
                "lagscan",
                "--input", lag_csv,
                "--ref-channel", "stim",
                "--lag-min-samples", "19",
                "--lag-max-samples", "30",
                "--sample-rate-hz", rate,
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert stderr_code(capsys) == "configuration"
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
    @staticmethod
    def _report(r2_bits):
        return CommonInfoReport(
            r2_hat=LevelEstimate(bits=r2_bits, channels=("a", "b")),
            r3_hat_lower=None,
            r4_hat_lower=None,
            rbar={2: 0.5},
            rtilde={2: 0.5},
            estimator=EstimatorConfig(),
            bisection=BisectionConfig(),
            seed=0,
            order=2,
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
                "--sigma-x2", "1",
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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand_exits_with_usage(self):
        with pytest.raises(SystemExit):
            main([])


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        out = tmp_path / "curves.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "hoci",
                "gaussian",
                "--sigma-x2", "1",
                "--sigma-n2-grid", "1",
                "--rho-grid", "0,0.5",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
