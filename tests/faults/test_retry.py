"""HotC's hardened boot path: retry, backoff, breaker, drain."""


from repro.containers import ContainerError
from repro.core import HotC, HotCConfig
from repro.core import hotc as hotc_module
from repro.faas import FaasPlatform, RequestOutcome
from repro.faults import FaultInjector


def make_platform(registry, config=None, **platform_kwargs):
    platform = FaasPlatform(
        registry,
        seed=0,
        jitter_sigma=0.0,
        provider_factory=lambda e: HotC(
            e, config or HotCConfig(control_interval_ms=0)
        ),
        **platform_kwargs,
    )
    injector = FaultInjector()
    platform.engine.attach_fault_injector(injector)
    return platform, injector


class TestBootRetry:
    def test_boot_failure_retried_transparently(self, registry, fn_python):
        platform, injector = make_platform(registry)
        platform.deploy(fn_python)
        injector.fail_next_boots(1)
        platform.submit(fn_python.name)
        platform.run()
        assert len(platform.traces) == 1
        trace = platform.traces.traces[0]
        assert trace.outcome is RequestOutcome.SUCCESS  # provider-level retry
        assert platform.engine.stats.boot_failures == 1
        assert platform.engine.stats.boot_retries == 1
        assert platform.engine.stats.boots == 1

    def test_transient_error_retried(self, registry, fn_python):
        platform, injector = make_platform(registry)
        platform.deploy(fn_python)
        injector.glitch_next_boots(2)
        platform.submit(fn_python.name)
        platform.run()
        assert platform.traces.traces[0].outcome is RequestOutcome.SUCCESS
        assert platform.engine.stats.transient_errors == 2
        assert platform.engine.stats.boot_retries == 2

    def test_backoff_delays_the_retry(self, registry, fn_python):
        """Each retry waits ``base * factor**(n-1)`` ms (+/- jitter)."""
        baseline_platform, _ = make_platform(registry)
        baseline_platform.deploy(fn_python)
        baseline_platform.submit(fn_python.name)
        baseline_platform.run()
        baseline = baseline_platform.traces.traces[0].total_latency

        base = hotc_module.BOOT_BACKOFF_BASE_MS
        factor = hotc_module.BOOT_BACKOFF_FACTOR
        jitter = hotc_module.BOOT_BACKOFF_JITTER
        for failures in (1, 2):
            platform, injector = make_platform(registry)
            platform.deploy(fn_python)
            injector.fail_next_boots(failures)
            platform.submit(fn_python.name)
            platform.run()
            waited = platform.traces.traces[0].total_latency - baseline
            backoff = sum(base * factor**n for n in range(failures))
            assert (1 - jitter) * backoff <= waited <= (1 + jitter) * backoff

    def test_retries_exhausted_fails_the_request(
        self, registry, fn_python, monkeypatch
    ):
        # Keep the breaker shut so only the retry budget stops the boots.
        monkeypatch.setattr(
            hotc_module, "BREAKER_THRESHOLD", hotc_module.BOOT_RETRIES + 2
        )
        platform, injector = make_platform(registry, request_retries=0)
        platform.deploy(fn_python)
        injector.fail_next_boots(10)
        platform.submit(fn_python.name)
        platform.run()
        trace = platform.traces.traces[0]
        assert trace.outcome is RequestOutcome.FAILED
        assert "BootFailure" in trace.error
        assert platform.engine.stats.requests_failed == 1
        # 1 original + BOOT_RETRIES provider retries, then the watchdog
        # gave up.
        retries = hotc_module.BOOT_RETRIES
        assert platform.engine.stats.boot_retries == retries
        assert platform.engine.stats.boot_failures == 1 + retries
        assert platform.engine.stats.breaker_opens == 0


class TestBusyAccounting:
    def test_failed_acquire_rolls_back_busy(self, registry, fn_python):
        """Regression: a raising boot must not leak demand accounting.

        Monkeypatches the engine with an always-failing boot (not the
        injector, so the test exercises the acquire contract itself).
        """
        platform = FaasPlatform(
            registry,
            seed=0,
            jitter_sigma=0.0,
            provider_factory=lambda e: HotC(
                e, HotCConfig(control_interval_ms=0)
            ),
        )
        platform.deploy(fn_python)
        provider = platform.provider

        def broken_boot(config, warm_runtime=False):
            raise ContainerError("engine exploded")
            yield  # pragma: no cover - generator marker

        platform.engine.boot_container = broken_boot
        process = platform.sim.process(
            provider.acquire(fn_python.container_config())
        )
        platform.run()
        assert process.triggered and not process.ok
        key = provider.key_of(fn_python.container_config())
        assert provider._busy.get(key, 0) == 0
        assert provider._pending_boots == {}

    def test_exec_crash_discard_rolls_back_busy(self, registry, fn_python):
        platform, injector = make_platform(registry)
        platform.deploy(fn_python)
        provider = platform.provider
        injector.crash_next_execs(1)
        platform.submit(fn_python.name)
        platform.run()
        trace = platform.traces.traces[0]
        assert trace.outcome is RequestOutcome.RETRIED
        assert trace.retries == 1
        assert platform.engine.stats.exec_crashes == 1
        key = provider.key_of(fn_python.container_config())
        assert provider._busy.get(key, 0) == 0
        provider.pool.check_consistency()


class TestBreakerIntegration:
    """The breaker opens after ``BREAKER_THRESHOLD`` consecutive boot
    failures and stays open for ``BREAKER_COOLDOWN_MS``."""

    threshold = hotc_module.BREAKER_THRESHOLD
    cooldown_ms = hotc_module.BREAKER_COOLDOWN_MS

    def test_breaker_opens_and_fails_fast(self, registry, fn_python):
        platform, injector = make_platform(registry, request_retries=0)
        platform.deploy(fn_python)
        injector.fail_next_boots(100)
        # Spaced past the retry backoff but inside the cooldown.
        spacing = 1_000.0
        assert 2 * spacing < self.cooldown_ms
        for i in range(3):
            platform.submit(fn_python.name, delay=i * spacing)
        platform.run(until=60_000.0)
        stats = platform.engine.stats
        assert stats.breaker_opens == 1
        # The later requests were refused without touching the engine.
        assert stats.breaker_fastfails == 2
        assert stats.boot_failures == self.threshold
        assert platform.traces.failed_count() == 3

    def test_half_open_probe_recovers(self, registry, fn_python):
        platform, injector = make_platform(registry, request_retries=0)
        platform.deploy(fn_python)
        # Exactly enough to open, all spent by the first request's
        # 1 + BOOT_RETRIES attempts.
        assert 1 + hotc_module.BOOT_RETRIES >= self.threshold
        injector.fail_next_boots(self.threshold)
        platform.submit(fn_python.name, delay=0.0)
        # After the cooldown the forced failures are exhausted: the
        # half-open probe boots cleanly and the breaker closes.  The
        # last request comes well after the probe finished (a request
        # arriving mid-probe would be fast-failed by design).
        probe_at = self.cooldown_ms + 1_000.0
        platform.submit(fn_python.name, delay=probe_at)
        platform.submit(fn_python.name, delay=probe_at + 45_000.0)
        platform.run(until=120_000.0)
        outcomes = platform.traces.outcome_counts()
        assert platform.engine.stats.breaker_opens == 1
        assert outcomes.get("failed") == 1
        assert outcomes.get("success") == 2
        assert platform.engine.stats.breaker_fastfails == 0
        key = platform.provider.key_of(fn_python.container_config())
        assert platform.provider._breaker_for(key).state == "closed"

    def test_open_breaker_pauses_prewarm(self, registry, fn_python):
        platform, injector = make_platform(registry)
        platform.deploy(fn_python)
        provider = platform.provider
        injector.fail_next_boots(100)
        platform.submit(fn_python.name)
        platform.submit(fn_python.name, delay=100.0)
        platform.run(until=1_000.0)
        key = provider.key_of(fn_python.container_config())
        assert provider._breaker_for(key).is_open(platform.sim.now)
        provider._spawn_prewarm(key)
        assert provider._pending_boots == {}  # refused while open


class TestShutdownDrain:
    def test_shutdown_mid_burst_retires_everything(self, registry, fn_python):
        platform, _ = make_platform(registry)
        platform.deploy(fn_python.with_overrides(exec_ms=5_000.0))
        provider = platform.provider
        for i in range(3):
            platform.submit(fn_python.name, delay=i * 10.0)
        platform.run(until=3_000.0)  # requests mid-execution
        assert platform.engine.live_count > 0
        platform.sim.process(provider.shutdown())
        platform.run()
        assert platform.engine.live_count == 0
        assert provider.pool.total_live == 0
        assert platform.traces.all_terminal()
        assert platform.traces.failed_count() == 0
        provider.pool.check_consistency()

    def test_shutdown_absorbs_pending_prewarm(self, registry, fn_python):
        platform, _ = make_platform(registry)
        platform.deploy(fn_python)
        provider = platform.provider
        key = provider.key_of(fn_python.container_config())
        provider._config_for_key.setdefault(
            key, fn_python.container_config()
        )
        provider._spawn_prewarm(key)
        # Shut down while the prewarm boot is still in flight.
        platform.sim.process(provider.shutdown())
        platform.run()
        assert platform.engine.live_count == 0
        assert provider.pool.total_live == 0
        assert provider._pending_boots == {}
