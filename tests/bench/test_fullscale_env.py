"""The one Tables 2/3 experiment, exercised through the real driver at a
reduced scale.

Guarantees riding on the prepared-environment + COW-clone design:

- ``generate_body`` is byte-identical cached vs rebuilt and serial vs
  ``--jobs 2`` for the same preset;
- the environment is built at most once per document, in the parent —
  strategy tasks, forked or not, never rebuild (the build-count
  assertion), and a run whose tasks do rebuild fails;
- an ``--env-cache`` file holding another configuration is refused in
  every preset;
- the pickle-free environment container round-trips losslessly, and
  independently loaded environments produce byte-identical tables.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import run_all
from repro.bench.configs import (
    EliotConfig,
    build_home_env,
    clear_env_cache,
    env_build_count,
    load_env,
    register_env,
    save_env,
)
from repro.bench.harness import (
    run_basic,
    table2_from_basic,
    table3_from_basic,
)
from repro.bench.report import to_markdown
from repro.bench.run_all import Preset, build_plan, generate_body, prepare_env
from repro.errors import ReproError
from repro.parallel import TaskPool, fork_available

TINY = 16000


def _config():
    return EliotConfig(scale=TINY, aging_rounds=1)


def _preset():
    """Tables 1-3 on the tiny testbed: the full-scale preset's shape."""
    return Preset(_config())


def _silent(*_args, **_kwargs):
    pass


def _tables_markdown(basic, scale):
    return (to_markdown(table2_from_basic(basic, scale)) + "\n"
            + to_markdown(table3_from_basic(basic, scale)))


def test_cloned_env_tables_match_rebuilt_env(tmp_path):
    """cold (build, save) == warm (load) == no cache file at all."""
    path = os.fspath(tmp_path / "tiny.env")
    cold = generate_body(_preset(), env_cache=path, echo=_silent)
    assert os.path.exists(path)
    before = env_build_count()
    warm = generate_body(_preset(), env_cache=path, echo=_silent)
    assert env_build_count() == before, "a cached run must not build"
    assert warm == cold
    assert generate_body(_preset(), echo=_silent) == cold


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_op_grid_byte_identical_serial_vs_jobs2():
    serial = generate_body(_preset(), jobs=1, echo=_silent)
    parallel = generate_body(_preset(), jobs=2, echo=_silent)
    assert parallel == serial


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_forked_workers_never_rebuild_the_environment():
    prepare_env(_config(), echo=_silent)
    specs = [item.spec for item in build_plan(_preset())
             if item.kind == "basic"]
    payloads = TaskPool(2).map_values(specs)
    assert [p["worker_builds"] for p in payloads] == [0, 0]


def test_parent_builds_exactly_once_across_ops():
    clear_env_cache()
    before = env_build_count()
    generate_body(_preset(), echo=_silent)
    assert env_build_count() - before == 1


def test_a_task_that_rebuilds_fails_the_run(monkeypatch):
    """Without the parent's prepared environment every strategy task
    builds its own — which the driver must refuse, not average over."""
    clear_env_cache()
    monkeypatch.setattr(run_all, "prepare_env", _silent)
    with pytest.raises(ReproError, match="rebuilt the environment"):
        generate_body(_preset(), echo=_silent)


@pytest.mark.parametrize("name", ["grid", "reduced", "fullscale"])
def test_env_cache_of_another_configuration_is_refused(tmp_path, name):
    path = os.fspath(tmp_path / "other.env")
    other = EliotConfig(scale=TINY, aging_rounds=1, seed=7)
    save_env(build_home_env(other), path)
    clear_env_cache()
    with pytest.raises(ReproError, match="holds a different configuration;"
                                         " delete it to rebuild"):
        generate_body(Preset.named(name), env_cache=path, echo=_silent)
    # The refused environment was not left where builders would find it.
    before = env_build_count()
    build_home_env(other)
    assert env_build_count() == before + 1


def test_env_container_roundtrip_is_lossless(tmp_path):
    """save -> load -> save reproduces the container byte for byte, and
    independently loaded environments produce byte-identical tables.

    (A *built* environment's tables may differ in the last digit from a
    mounted one — the builder leaves a warm buffer cache — which is why
    ``prepare_env`` always measures from a mount.)
    """
    clear_env_cache()
    env = build_home_env(_config())
    path1 = os.fspath(tmp_path / "tiny1.env")
    path2 = os.fspath(tmp_path / "tiny2.env")
    save_env(env, path1)

    clear_env_cache()
    loaded = load_env(path1)
    assert loaded.config.cache_key() == env.config.cache_key()
    assert loaded.qtree_paths == env.qtree_paths
    # Registered in the process cache, builders fetch the loaded
    # environment instead of rebuilding.
    register_env(loaded)
    before = env_build_count()
    assert build_home_env(_config()) is loaded
    assert env_build_count() == before
    save_env(loaded, path2)
    with open(path1, "rb") as h1, open(path2, "rb") as h2:
        assert h1.read() == h2.read()

    first = _tables_markdown(run_basic(loaded), TINY)
    clear_env_cache()
    again = load_env(path1)
    assert _tables_markdown(run_basic(again), TINY) == first


def test_env_clone_is_independent_of_the_source():
    env = build_home_env(_config())
    clone = env.clone()
    marker = b"clone-independence-probe"
    clone.home_fs.create("/probe", marker)
    assert clone.home_fs.read_file("/probe") == marker
    assert not env.home_fs.exists("/probe")
