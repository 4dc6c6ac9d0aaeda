"""Tests for the content-addressed on-disk result cache."""

import shutil

import pytest

from repro.campaign.cache import ResultCache, default_cache_dir

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestResultCache:
    def test_miss_then_hit(self, cache):
        assert cache.get(KEY) is None
        cache.put(KEY, {"cell": {"percentage": 1.5}})
        assert cache.get(KEY) == {"cell": {"percentage": 1.5}}
        assert cache.hits == 1
        assert cache.misses == 1

    def test_sharded_layout(self, cache):
        path = cache.put(KEY, {"x": 1})
        assert path.parent.name == KEY[:2]
        assert path.name == f"{KEY}.json"

    def test_put_remakes_a_deleted_shard_directory(self, cache):
        """``put`` makes a shard directory only when the temp file cannot
        be opened without it: a shard removed under a live cache (say by
        ``campaign clear``) is made again, and the entry is served."""
        path = cache.put(KEY, {"x": 1})
        shutil.rmtree(path.parent)
        assert cache.put(KEY, {"x": 2}) == path
        assert cache.get(KEY) == {"x": 2}
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

    def test_contains_and_size(self, cache):
        assert cache.get(KEY) is None
        assert cache.size() == 0
        cache.put(KEY, {"x": 1})
        cache.put(OTHER, {"x": 2})
        assert cache.get(KEY) == {"x": 1}
        assert cache.size() == 2
        assert sorted(cache.keys()) == sorted([KEY, OTHER])

    def test_corrupt_entry_is_a_miss(self, cache):
        path = cache.put(KEY, {"x": 1})
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.get(KEY) is None
        # and can be overwritten cleanly
        cache.put(KEY, {"x": 2})
        assert cache.get(KEY) == {"x": 2}

    def test_truncated_entry_is_a_miss(self, cache):
        """A killed writer's torn tail must not poison later reads."""
        path = cache.put(KEY, {"cell": {"percentage": 1.5}, "x": 1})
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.get(KEY) is None

    def test_undecodable_entry_is_a_miss(self, cache):
        """Bytes that are not UTF-8 (disk corruption) are a warned miss,
        not an exception out of ``get``."""
        path = cache.put(KEY, {"x": 1})
        path.write_bytes(b'{"x": "\xff\xfe"}')
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.get(KEY) is None

    def test_wrong_shape_entry_is_a_miss(self, cache):
        path = cache.put(KEY, {"x": 1})
        path.write_text("[1, 2, 3]")  # valid JSON, not an object
        with pytest.warns(RuntimeWarning, match="not an"):
            assert cache.get(KEY) is None

    def test_short_key_rejected(self, cache):
        with pytest.raises(ValueError, match="too short"):
            cache.get("ab")

    def test_missing_root_is_empty(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.size() == 0
        assert list(cache.keys()) == []


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/elsewhere")
        assert default_cache_dir() == "/tmp/elsewhere"

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() == ".repro-campaign"
