"""Bad configuration exits 2 with one ``error:`` line, before any run."""

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.faults import run_chaos, run_health


@pytest.mark.parametrize(
    "argv",
    [
        ["chaos", "--ops", "0"],
        ["chaos", "--ops", "-5"],
        ["replica", "--ops", "-1"],
        ["health", "--window", "0"],
        ["flightrec", "--window", "0"],
        ["trace", "--value-size", "-1"],
    ],
)
def test_cli_exits_2_with_one_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "OK" not in captured.out


@pytest.mark.parametrize("ops", [0, -5])
def test_chaos_refuses_an_empty_run(ops):
    with pytest.raises(ConfigurationError, match="ops must be >= 1"):
        run_chaos(seed=7, schedule="drop:0.05", ops=ops)


def test_health_refuses_a_zero_window():
    with pytest.raises(ConfigurationError, match="window_ticks"):
        run_health(ops=40, window_ticks=0)
