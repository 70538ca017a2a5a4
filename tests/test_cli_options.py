"""Every option a command is given must be one it uses.

A command refuses an option its handler does not take (exit 2, one
``error:`` line) instead of running without it, and every documented
``python -m repro.cli`` line passes only options its command uses.
"""

import inspect
import pathlib
import re
import shlex

import pytest

from repro import cli
from repro.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["traffic", "--autoscale", "--ops", "60"], "--autoscale"),
        (["health", "--rate", "5"], "--rate"),
        (["metrics", "--schedule", "drop:0.5"], "--schedule"),
        (["trace", "--replicas", "1"], "--replicas"),
        (["list", "--shards", "2"], "--shards"),
        (["chaos", "--window", "0"], "--window"),
        (["shard", "--lease-ms", "5"], "--lease-ms"),
        (["traffic", "--cache-entries", "17"], "--cache-entries"),
        (["traffic", "--cache", "--offload"], "--cache, --offload"),
        (["health", "--lease-ms", "1"], "--lease-ms"),
        (["flightrec", "--ack-mode", "async"], "--ack-mode"),
    ],
)
def test_unused_option_is_refused(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: '{argv[0]}' does not take {flag}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chaos", "--ack-mode", "async"], "--ack-mode needs --replicas >= 1"),
        (
            ["traffic", "--ack-mode", "async"],
            "--ack-mode needs --replicas >= 1",
        ),
        (
            ["chaos", "--shards", "2", "--lease-ms", "5"],
            "--lease-ms needs --cache",
        ),
        (
            ["nearcache", "--offload", "--cache-entries", "17"],
            "--cache-entries needs --cache",
        ),
    ],
)
def test_option_of_a_feature_left_off_is_refused(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


#: Shell words that end a command line (redirections, pipes, chains).
_END = re.compile(r"^(?:[0-9]?>|\||&&|;)")


def _documented_invocations():
    paths = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "Makefile"]
    paths += sorted((ROOT / "docs").glob("*.md"))
    for path in paths:
        text = path.read_text().replace("\\\n", " ")
        for line in text.splitlines():
            match = re.search(r"-m repro\.cli\s+([^`]*)", line)
            # A shell loop's "$name" documents no one command.
            if match and not match.group(1).startswith(("$", '"$')):
                yield path.name, match.group(1)


def _argv(line):
    """The command-line words of one documented invocation."""
    words = shlex.split(line, comments=True)
    for i, word in enumerate(words):
        if _END.match(word):
            return words[:i]
    return words


_INVOCATIONS = sorted(set(_documented_invocations()))


def test_docs_have_invocations_to_check():
    assert len(_INVOCATIONS) > 50


@pytest.mark.parametrize("source, line", _INVOCATIONS)
def test_documented_invocation_uses_only_its_options(source, line):
    args = build_parser().parse_args(_argv(line))
    handler, _ = cli._COMMANDS[args.artifact]

    def dry_run(**_):
        return None, 0

    # Same signature, no run: _call checks the options (and builds the
    # cluster spec they describe) exactly as for the real handler.
    dry_run.__signature__ = inspect.signature(handler)
    assert cli._call(dry_run, args) == (None, 0)
