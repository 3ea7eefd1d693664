"""ResultStore as the sweeps' result cache: the get/put contract a sweep
relies on when it answers a spec from disk, and the crash-safe atomic
write beneath it.  ``test_store.py`` covers the service side (index,
eviction, GC, estimates, locking)."""

import json
import os
from pathlib import Path

import pytest

from repro.exec import (ResultStore, ScenarioSpec, atomic_write_json,
                        code_version, exec_stats)

SPEC = ScenarioSpec.make("fig2", alpha=0.25, n_tasks=8)
PAYLOAD = {"runtime_s": 1.25, "series": {"a": [[0.0], [1.0]]}}


class TestCache:
    def test_miss_then_hit(self, store_dir):
        # The default salt is the running code version.
        store = ResultStore()
        assert store.salt == code_version()
        assert store.get(SPEC) is None
        store.put(SPEC, PAYLOAD)
        assert store.get(SPEC) == PAYLOAD
        assert exec_stats.store_misses == 1
        assert exec_stats.store_hits == 1
        assert exec_stats.store_stores == 1

    def test_spec_change_is_a_plain_miss(self, store_dir):
        store = ResultStore(salt="v1")
        store.put(SPEC, PAYLOAD)
        other = ScenarioSpec.make("fig2", alpha=0.5, n_tasks=8)
        assert store.get(other) is None
        assert exec_stats.store_invalidations == 0
        # the original entry survives
        assert store.get(SPEC) == PAYLOAD

    def test_salt_change_invalidates_stale_entry(self, store_dir):
        old = ResultStore(salt="v1")
        old.put(SPEC, PAYLOAD)
        new = ResultStore(salt="v2")
        assert new.get(SPEC) is None
        assert exec_stats.store_invalidations == 1
        # the stale entry is gone even for the old salt
        assert old.get(SPEC) is None
        assert exec_stats.store_invalidations == 1

    def test_corrupt_blob_is_a_miss_and_recovers(self, store_dir):
        # Valid JSON without a payload: a blob from some other writer.
        store = ResultStore(salt="v1")
        path = store.put(SPEC, PAYLOAD)
        path.write_text(json.dumps({"fingerprint": path.stem}))
        assert store.get(SPEC) is None
        assert len(store) == 0
        store.put(SPEC, PAYLOAD)
        assert store.get(SPEC) == PAYLOAD

    def test_payload_round_trips_exactly(self, store_dir):
        store = ResultStore(salt="v1")
        payload = {"x": 0.1 + 0.2, "y": [1e-300, 3, None, "s"],
                   "nested": {"z": False}}
        store.put(SPEC, payload)
        assert ResultStore(salt="v1").get(SPEC) == payload

    def test_clear(self, store_dir):
        store = ResultStore(salt="v1")
        store.put(SPEC, PAYLOAD)
        assert store.clear() == 1
        assert store.get(SPEC) is None
        assert exec_stats.store_invalidations == 0
        store.put(SPEC, PAYLOAD)
        assert store.get(SPEC) == PAYLOAD

    def test_explicit_root_beats_env(self, tmp_path, store_dir,
                                     monkeypatch):
        explicit = tmp_path / "elsewhere"
        store = ResultStore(root=explicit, salt="v1")
        store.put(SPEC, PAYLOAD)
        assert list((explicit / "blobs").glob("*.json"))
        assert not store_dir.exists()
        # Neither given: the store lives in the working directory.
        monkeypatch.delenv("REPRO_STORE_DIR")
        assert ResultStore(salt="v1").root == Path(".repro-store")


class TestAtomicWrite:
    """Torn-write regression: unique temp names + rename publication."""

    def test_crash_mid_write_leaves_published_entry_intact(self, tmp_path,
                                                           monkeypatch):
        target = tmp_path / "entry.json"
        atomic_write_json(target, {"v": 1})

        class Boom(RuntimeError):
            pass

        def explode(obj, fh, **kwargs):
            fh.write('{"v": 2, "partial": ')  # tear mid-object...
            raise Boom("disk full / SIGKILL stand-in")

        monkeypatch.setattr("repro.exec.store.json.dump", explode)
        with pytest.raises(Boom):
            atomic_write_json(target, {"v": 2})
        # The published entry still reads back whole, and the torn temp
        # file was removed rather than left for a future rename.
        assert json.loads(target.read_text()) == {"v": 1}
        assert list(tmp_path.iterdir()) == [target]

    def test_concurrent_writers_get_private_temp_names(self, tmp_path,
                                                       monkeypatch):
        # A shared "<name>.tmp" per target would let writer B truncate
        # the temp file writer A is renaming.  Pin the fix: two
        # interleaved writes use distinct temp paths.
        import repro.exec.store as store_mod

        seen = []
        real_replace = os.replace

        def spy_replace(src, dst):
            seen.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", spy_replace)
        target = tmp_path / "entry.json"
        atomic_write_json(target, {"v": 1})
        atomic_write_json(target, {"v": 2})
        assert len(seen) == 2 and seen[0] != seen[1]
        assert all(s.endswith(".tmp") and "entry.json." in s for s in seen)
        assert json.loads(target.read_text()) == {"v": 2}

    def test_clear_sweeps_orphaned_temp_files(self, store_dir):
        store = ResultStore(salt="v1")
        store.put(SPEC, PAYLOAD)
        orphans = [store.blob_dir / "entry.json.abc123.tmp",
                   store.root / "index.json.def456.tmp"]
        for orphan in orphans:
            orphan.write_text('{"torn":')
        assert store.clear() == 1  # temp files are not entries
        assert not any(orphan.exists() for orphan in orphans)
        assert not list(store.blob_dir.glob("*"))
