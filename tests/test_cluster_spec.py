"""ClusterSpec: one declaration of the cluster shape, checked and wired once.

A bad shape is refused when the spec is constructed, before any server
exists; every cluster command of the CLI turns each cluster option it
takes into the spec its harness builds from, and refuses the others.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.shard import ClusterSpec


@pytest.mark.parametrize(
    "bad",
    [
        dict(shards=0),
        dict(shards=65),
        dict(shards=None, replicas=1),
        dict(shards=None, near_cache=True),
        dict(shards=None, read_offload=True),
        dict(shards=2, replicas=0, read_offload=True),
        dict(shards=2, near_cache=True, cache_lease_ms=0),
        dict(shards=2, near_cache=True, cache_lease_ms=-1.0),
        dict(shards=2, near_cache=True, cache_lease_ms=1e-7),
        dict(shards=2, near_cache=True, cache_lease_ms=float("nan")),
        dict(shards=2, near_cache=True, cache_lease_ms=float("inf")),
    ],
)
def test_bad_shape_refused_at_construction(bad):
    with pytest.raises(ConfigurationError):
        ClusterSpec(**bad)


def test_unsharded_spec_has_no_cluster_to_build():
    with pytest.raises(ConfigurationError):
        ClusterSpec(shards=None).build(seed=1)


class _Built(Exception):
    """Raised by the patched build: the spec reached the harness."""


#: Cluster option -> (its argv, the spec field it sets, the value the
#: field must hold); every value differs from every command's default.
_OPTIONS = {
    "--shards": (["--shards", "4"], "shards", 4),
    "--replicas": (["--replicas", "2"], "replicas", 2),
    "--ack-mode": (["--ack-mode", "async"], "ack_mode", "async"),
    "--cache": (["--cache"], "near_cache", True),
    "--offload": (["--offload"], "read_offload", True),
    "--cache-entries": (["--cache-entries", "17"], "cache_entries", 17),
    "--lease-ms": (["--lease-ms", "7.5"], "cache_lease_ms", 7.5),
}

_REPLICATED = {"--shards", "--replicas", "--ack-mode"}

#: Cluster command -> the cluster options it takes: the shape its report
#: describes, and the read path for the two commands that run it.
_TAKES = {
    "shard": {"--shards"},
    "chaos": set(_OPTIONS),
    "replica": _REPLICATED,
    "health": _REPLICATED,
    "flightrec": {"--shards", "--replicas"},
    "traffic": _REPLICATED,
    "nearcache": set(_OPTIONS),
    "autoscale": _REPLICATED,
}


@pytest.mark.parametrize("option", sorted(_OPTIONS))
@pytest.mark.parametrize("command", sorted(_TAKES))
def test_cluster_option_reaches_the_built_spec_or_is_refused(
    monkeypatch, capsys, command, option
):
    built = []

    def capture(spec, seed, obs=None):
        built.append(spec)
        raise _Built

    monkeypatch.setattr(ClusterSpec, "build", capture)
    argv, field, value = _OPTIONS[option]
    if option not in _TAKES[command]:
        assert main([command, *argv]) == 2
        assert capsys.readouterr().err == (
            f"error: '{command}' does not take {option}\n"
        )
        assert not built
        return
    # A valid shape around the option under test, from the options the
    # command takes: sharded ('chaos' defaults to one server),
    # replicated (offload and the ack mode need backups) and with a
    # read-path feature on ('nearcache' needs one; the lease and the
    # capacity need the cache).
    context = ["--shards", "3"]
    if "--replicas" in _TAKES[command]:
        context += ["--replicas", "1"]
    if "--cache" in _TAKES[command] and field not in (
        "near_cache",
        "read_offload",
    ):
        context.append("--cache")
    with pytest.raises(_Built):
        main([command, *context, *argv])
    assert getattr(built[0], field) == value


def test_chaos_runs_the_cached_offloaded_read_path(capsys):
    code = main([
        "chaos", "--shards", "3", "--replicas", "1", "--cache",
        "--offload", "--ops", "60", "--json",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["near_cache"] is True
    assert report["read_offload"] is True


def test_chaos_refuses_too_many_shards(capsys):
    assert main(["chaos", "--shards", "65"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
