"""Tests for the deterministic fault injector (seam behaviour + replay)."""

import errno
import json

import pytest

from repro.analysis.cache import ResultCache
from repro.faults.injector import FaultPlan, InjectedCrash
from repro.faults.spec import (
    BitFlip,
    CacheCorruption,
    CacheOsError,
    StashPressure,
    WorkerCrash,
    WorkerHang,
)
from repro.system.config import SystemConfig
from repro.system.metrics import SimulationResult
from repro.system.simulator import simulate


def small_result() -> SimulationResult:
    return simulate(
        SystemConfig.insecure_system(), "mcf", num_requests=300, seed=1
    )


class TestPointFaults:
    def test_crash_fires_only_at_its_point_and_attempt(self):
        plan = FaultPlan(specs=(WorkerCrash(point=2, attempt=2),))
        injector = plan.injector()
        injector.before_point(0, 1)
        injector.before_point(2, 1)
        injector.before_point(2, 3)
        assert injector.fired() == []
        with pytest.raises(InjectedCrash):
            injector.before_point(2, 2)
        assert injector.fired() == ["worker-crash@2#2:exception"]

    def test_exit_mode_degrades_to_exception_in_process(self):
        # in_worker=False must never os._exit the test process.
        plan = FaultPlan(specs=(WorkerCrash(point=0, mode="exit"),))
        with pytest.raises(InjectedCrash):
            plan.injector(in_worker=False).before_point(0, 1)

    def test_hang_sleeps_then_returns(self):
        plan = FaultPlan(specs=(WorkerHang(point=1, hang_s=0.01),))
        injector = plan.injector()
        injector.before_point(1, 1)
        assert injector.fired() == ["worker-hang@1#1"]


class TestCacheFaults:
    def test_wrap_cache_is_identity_without_cache_specs(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        injector = FaultPlan(specs=(WorkerCrash(),)).injector()
        assert injector.wrap_cache(cache) is cache
        assert cache.fault_hook is None

    def test_wrap_cache_none_passthrough(self):
        assert FaultPlan(specs=(CacheCorruption(),)).injector().wrap_cache(
            None
        ) is None

    def test_os_error_hook_degrades_put(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        plan = FaultPlan(specs=(CacheOsError(err=errno.ENOSPC),))
        wrapped = plan.injector().wrap_cache(cache)
        assert wrapped is cache  # os-error plans need no proxy
        with pytest.warns(RuntimeWarning, match="disabling cache writes"):
            assert cache.put("ab" * 32, small_result()) is False
        assert cache.put_errors == 1
        assert cache.write_disabled

    def test_put_window_selects_puts(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        plan = FaultPlan(specs=(CacheOsError(first=1, count=1),))
        plan.injector().wrap_cache(cache)
        result = small_result()
        assert cache.put("aa" * 32, result) is True  # put 0: clean
        with pytest.warns(RuntimeWarning):
            assert cache.put("bb" * 32, result) is False  # put 1: injected

    def test_corruption_turns_reads_into_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = "cd" * 32
        cache.put(key, small_result())
        wrapped = (
            FaultPlan(specs=(CacheCorruption(mode="truncate"),), seed=11)
            .injector()
            .wrap_cache(cache)
        )
        assert wrapped is not cache
        assert wrapped.get(key) is None  # damaged on disk, then read
        # The file really was truncated, not just hidden.
        raw = cache.path_for(key).read_bytes()
        with pytest.raises(ValueError):
            json.loads(raw or "x")

    def test_garbage_mode_overwrites(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = "ef" * 32
        cache.put(key, small_result())
        wrapped = (
            FaultPlan(specs=(CacheCorruption(mode="garbage"),))
            .injector()
            .wrap_cache(cache)
        )
        assert wrapped.get(key) is None
        assert b"garbage" in cache.path_for(key).read_bytes()

    def test_corruption_window_spares_later_reads(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        result = small_result()
        for key in ("11" * 32, "22" * 32):
            cache.put(key, result)
        wrapped = (
            FaultPlan(specs=(CacheCorruption(first=0, count=1),), seed=2)
            .injector()
            .wrap_cache(cache)
        )
        assert wrapped.get("11" * 32) is None  # read 0: corrupted
        assert wrapped.get("22" * 32) is not None  # read 1: clean

    def test_proxy_delegates_everything_else(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        wrapped = (
            FaultPlan(specs=(CacheCorruption(),)).injector().wrap_cache(cache)
        )
        assert wrapped.root == cache.root
        assert wrapped.put("ab" * 32, small_result()) is True


class TestBackendFaults:
    def test_no_simulator_specs_means_no_wrapper(self):
        plan = FaultPlan(specs=(WorkerCrash(), CacheCorruption()))
        assert plan.injector().backend_filter() is None

    def test_bit_flip_perturbs_a_real_run(self):
        config = SystemConfig.tiny()
        clean = simulate(config, "mcf", num_requests=500, seed=1)
        injector = FaultPlan(specs=(BitFlip(at_access=3),), seed=5).injector()
        faulty = simulate(
            config,
            "mcf",
            num_requests=500,
            seed=1,
            backend_filter=injector.backend_filter(),
        )
        assert injector.fired() and injector.fired()[0].startswith("bit-flip@access3")
        # The run survives; metrics shape is intact.
        assert faulty.llc_misses == clean.llc_misses

    def test_stash_pressure_squeezes_and_restores(self):
        config = SystemConfig.tiny()
        injector = FaultPlan(
            specs=(StashPressure(at_access=2, window=3, squeeze=5),)
        ).injector()

        captured = {}

        def spy_filter(backend):
            wrapped = injector.backend_filter()(backend)
            captured["controller"] = wrapped.controller
            return wrapped

        simulate(
            config, "mcf", num_requests=400, seed=1, backend_filter=spy_filter
        )
        controller = captured["controller"]
        # Window has closed by end of run: capacity restored.
        assert controller.stash.capacity == config.oram.stash_capacity
        assert any(
            entry.startswith("stash-pressure@access2")
            for entry in injector.fired()
        )

    def test_insecure_backend_is_a_noop_target(self):
        injector = FaultPlan(specs=(BitFlip(at_access=0),)).injector()
        result = simulate(
            SystemConfig.insecure_system(),
            "mcf",
            num_requests=300,
            seed=1,
            backend_filter=injector.backend_filter(),
        )
        assert result.llc_misses > 0
        assert injector.fired() == []  # no controller to perturb


class TestDeterminism:
    def test_same_plan_same_seed_same_sequence(self, tmp_path):
        plan = FaultPlan(
            specs=(
                WorkerHang(point=0, hang_s=0.0),
                CacheCorruption(mode="truncate"),
                BitFlip(at_access=4),
            ),
            seed=21,
        )

        def drive(root):
            cache = ResultCache(root)
            key = "ab" * 32
            cache.put(key, small_result())
            injector = plan.injector()
            injector.before_point(0, 1)
            injector.wrap_cache(cache).get(key)
            simulate(
                SystemConfig.tiny(),
                "mcf",
                num_requests=300,
                seed=1,
                backend_filter=injector.backend_filter(),
            )
            return injector.fired()

        first = drive(tmp_path / "a")
        second = drive(tmp_path / "b")
        assert first == second
        assert first  # the sequence is non-trivial

    def test_different_seed_may_change_random_choices_not_schedule(self):
        plan_a = FaultPlan(specs=(WorkerCrash(point=1),), seed=1)
        plan_b = FaultPlan(specs=(WorkerCrash(point=1),), seed=2)
        for plan in (plan_a, plan_b):
            injector = plan.injector()
            with pytest.raises(InjectedCrash):
                injector.before_point(1, 1)
            assert injector.fired() == ["worker-crash@1#1:exception"]
