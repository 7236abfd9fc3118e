"""The one Tables 2/3 experiment, exercised through the real driver at a
reduced scale.

Guarantees riding on the one-start-state + COW-clone design:

- ``build_home_env`` returns the mounted container, never the builder's
  warm file system: built, loaded from a cache file and fetched from the
  process cache are the same start state and produce the same tables;
- ``generate_body`` is byte-identical cached vs rebuilt and serial vs
  ``--jobs 2`` for the same preset;
- the environment is built at most once per document, in the parent —
  strategy tasks, forked or not, never rebuild (the build-count
  assertion), and a run whose tasks do rebuild fails;
- an ``--env-cache`` file holding another configuration is refused in
  every preset;
- the environment container round-trips losslessly, generated trees
  included, and independently loaded environments produce
  byte-identical tables.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import run_all
from repro.bench.configs import (
    EliotConfig,
    ExperimentEnv,
    build_home_env,
    clear_env_cache,
    env_build_count,
    load_env,
    save_env,
)
from repro.bench.harness import (
    run_basic,
    run_table45,
    table2_from_basic,
    table3_from_basic,
)
from repro.bench.report import to_markdown
from repro.bench.run_all import Preset, build_plan, generate_body
from repro.chaos.verify import filesystem_digest
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
    build_home_env(_config())
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
    """Without the parent's mounted environment every strategy task
    builds its own — which the driver must refuse, not average over."""
    def forgetful(*args, **kwargs):
        clear_env_cache()
        return build_home_env(*args, **kwargs)
    monkeypatch.setattr(run_all, "build_home_env", forgetful)
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
    independently loaded environments produce byte-identical tables."""
    clear_env_cache()
    env = build_home_env(_config())
    path1 = os.fspath(tmp_path / "tiny1.env")
    path2 = os.fspath(tmp_path / "tiny2.env")
    save_env(env, path1)

    loaded = load_env(path1)
    assert loaded.config.cache_key() == env.config.cache_key()
    assert loaded.qtree_paths == env.qtree_paths
    assert loaded.home_tree.to_json() == env.home_tree.to_json()
    save_env(loaded, path2)
    with open(path1, "rb") as h1, open(path2, "rb") as h2:
        assert h1.read() == h2.read()

    first = _tables_markdown(run_basic(loaded), TINY)
    assert _tables_markdown(run_basic(load_env(path1)), TINY) == first


def _start_state(env):
    """What the first experiment on ``env`` can tell about its past."""
    fs = env.home_fs
    cache = fs.volume.cache
    return {"hits": cache.hits, "misses": cache.misses,
            "inodes": len(fs._inodes), "tree": env.home_tree.to_json(),
            "fragmentation": env.fragmentation,
            "digest": filesystem_digest(fs)}


def test_every_entrance_is_the_same_cold_mount(tmp_path):
    """``build_home_env`` — building, loading a cache file, or hitting the
    process cache — returns what ``load_env`` mounts from a ``save_env``
    of the build: the builder's tree, and none of its warm caches."""
    config = EliotConfig(scale=60000, aging_rounds=1)
    built = ExperimentEnv(config)
    built.build_home()
    reference = os.fspath(tmp_path / "reference.env")
    save_env(built, reference)
    cold = _start_state(load_env(reference))
    # The builder is what a run must not start from: populating and
    # aging left it a hot buffer cache and every inode it touched
    # (363 hits and 86 inodes here, against 1 and 1).
    warm = _start_state(built)
    assert (warm["digest"], warm["tree"]) == (cold["digest"], cold["tree"])
    assert warm["hits"] > cold["hits"] and warm["inodes"] > cold["inodes"]

    path = os.fspath(tmp_path / "cache.env")
    clear_env_cache()
    before = env_build_count()
    assert _start_state(build_home_env(config, cache_file=path)) == cold
    assert env_build_count() == before + 1        # built, saved to path
    assert build_home_env(config) is build_home_env(config)  # cache hit
    assert _start_state(build_home_env(config)) == cold
    assert _start_state(build_home_env(config, cache_file=path)) == cold
    assert env_build_count() == before + 1        # loaded, not rebuilt
    clear_env_cache()
    assert _start_state(build_home_env(config)) == cold  # no file at all
    assert env_build_count() == before + 2


def test_table4_is_the_same_from_every_entrance(tmp_path):
    """Tables 4/5 take their environment from ``build_home_env`` inside
    the task: built, loaded from a cache file and found in the process
    cache (where an earlier Table 4 left it) must be one table."""
    config = EliotConfig(scale=TINY, aging_rounds=1, qtrees=2)
    path = os.fspath(tmp_path / "qtrees.env")
    clear_env_cache()
    built = to_markdown(run_table45(2, config))
    assert to_markdown(run_table45(2, config)) == built     # cache hit
    build_home_env(config, cache_file=path)                 # built, saved
    assert to_markdown(run_table45(2, config)) == built
    build_home_env(config, cache_file=path)                 # loaded
    assert to_markdown(run_table45(2, config)) == built


def test_env_clone_is_independent_of_the_source():
    env = build_home_env(_config())
    clone = env.clone()
    marker = b"clone-independence-probe"
    clone.home_fs.create("/probe", marker)
    assert clone.home_fs.read_file("/probe") == marker
    assert not env.home_fs.exists("/probe")
