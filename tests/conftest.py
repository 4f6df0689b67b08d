"""Shared test wiring: acceptance tests register one labeled line each,
echoed in a summary section after the run; the CI steps' seeded parity
input is built once."""
from types import SimpleNamespace

import numpy as np
import pytest

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance results")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def parity_input(tmp_path_factory):
    """The CI steps' seeded parity input: channels a-d of 2,000 samples from
    ``default_rng(7)``, as channels-by-samples ``data`` and as the file
    ``rows`` (rows.csv: a comment line, the header, CRLF line ends)."""
    g = np.random.default_rng(7)
    data = g.standard_normal((4, 2000)) + g.standard_normal(2000)
    lines = ["# seeded parity input", "a,b,c,d", *(",".join(map(repr, s)) for s in data.T.tolist())]
    rows = tmp_path_factory.mktemp("parity") / "rows.csv"
    rows.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    return SimpleNamespace(data=data, rows=rows)
