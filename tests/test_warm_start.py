"""Warm-start tests: a populated image store serves residual code to a
fresh generating extension (and a fresh process) without running the
specializer at all."""

from __future__ import annotations

import os
import subprocess
import sys

from repro.rtcg import make_generating_extension

POWER = "(define (power x n) (if (zero? n) 1 (* x (power x (- n 1)))))"


def _gen(store_dir, **kwargs):
    return make_generating_extension(
        POWER, "DS", goal="power", store_dir=store_dir, **kwargs
    )


class TestWarmStartInProcess:
    def test_warm_start_result_is_l1_cached(self, tmp_path):
        store_dir = tmp_path / "store"
        _gen(store_dir).to_object_code([5])
        warm = _gen(store_dir)
        warm.to_object_code([5])
        warm.to_object_code([5])  # second application: L1, not disk
        stats = warm.cache_stats()
        assert stats["store"]["hits"] == 1
        assert stats["hits"] == 1

    def test_different_static_still_specializes(self, tmp_path):
        store_dir = tmp_path / "store"
        _gen(store_dir).to_object_code([5])
        warm = _gen(store_dir)
        warm.to_object_code([7])
        stats = warm.cache_stats()
        assert stats["specializer_runs"] == 1
        assert stats["store"]["misses"] == 1

    def test_every_load_runs_the_verifier(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "store"
        _gen(store_dir).to_object_code([5])
        calls = []
        import repro.image.store as store_mod

        monkeypatch.setattr(store_mod, "verify_residual", calls.append)
        for _ in range(2):
            warm = _gen(store_dir)
            warm.to_object_code([5])
            assert warm.cache_stats()["specializer_runs"] == 0
        assert len(calls) == 2


class TestWarmStartAcrossProcesses:
    """The end-to-end claim: export in one process, load in another."""

    def _run(self, *argv, cwd):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
            timeout=120,
        )

    def test_export_then_load_in_fresh_process(self, tmp_path):
        source = tmp_path / "power.scm"
        source.write_text(POWER)
        store = tmp_path / "store"

        exported = self._run(
            "image", "export", str(source), "--sig", "DS",
            "--static", "5", "--store", str(store),
            cwd=tmp_path,
        )
        assert exported.returncode == 0, exported.stderr
        digest = exported.stdout.split()[0]
        assert len(digest) == 64

        loaded = self._run(
            "image", "load", digest, "--store", str(store),
            "--dynamic", "2",
            cwd=tmp_path,
        )
        assert loaded.returncode == 0, loaded.stderr
        assert loaded.stdout.strip() == "32"
        assert "verified yes" in loaded.stderr

    def test_standalone_image_file_across_processes(self, tmp_path):
        source = tmp_path / "power.scm"
        source.write_text(POWER)
        image = tmp_path / "power5.rpoi"

        exported = self._run(
            "image", "export", str(source), "--sig", "DS",
            "--static", "5", "-o", str(image),
            cwd=tmp_path,
        )
        assert exported.returncode == 0, exported.stderr
        assert image.is_file()

        loaded = self._run(
            "image", "load", str(image), "--dynamic", "3",
            cwd=tmp_path,
        )
        assert loaded.returncode == 0, loaded.stderr
        assert loaded.stdout.strip() == "243"

    def test_stats_reports_disk_hit_in_fresh_process(self, tmp_path):
        import json

        source = tmp_path / "power.scm"
        source.write_text(POWER)
        store = tmp_path / "store"

        first = self._run(
            "stats", str(source), "--sig", "DS", "--static", "5",
            "--store", str(store), "--json",
            cwd=tmp_path,
        )
        assert first.returncode == 0, first.stderr
        cold = json.loads(first.stdout)
        assert cold["disk_hit"] is False
        assert cold["cache"]["specializer_runs"] == 1

        second = self._run(
            "stats", str(source), "--sig", "DS", "--static", "5",
            "--store", str(store), "--json",
            cwd=tmp_path,
        )
        assert second.returncode == 0, second.stderr
        warm = json.loads(second.stdout)
        assert warm["disk_hit"] is True
        assert warm["cache"]["specializer_runs"] == 0
        assert warm["cache"]["store"]["hits"] == 1
