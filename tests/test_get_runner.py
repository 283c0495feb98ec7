"""The keyed runner pool (`get_runner`) and cost-model auto-refit.

`get_runner` keys each runner on ``(store file, backend, runner kwargs)``
so an embedded server can run independent sweeps per tenant, and two
callers share a runner only when they would have built the same one.
It reads no environment: ``SessionConfig`` resolves ``REPRO_*`` before
anything reaches the pool (``test_api_session`` covers that layer).
"""

from __future__ import annotations

import pytest

from repro.generators import uniform_instance
from repro.runtime import BatchRunner, QueueBackend, SerialBackend, pool
from repro.runtime import runner as runner_module
from repro.runtime.pool import get_runner


@pytest.fixture(autouse=True)
def isolated_runner_pool(monkeypatch):
    """Each test sees an empty runner pool (the module state is global)."""
    monkeypatch.setattr(pool, "_RUNNERS", {})
    monkeypatch.setattr(pool, "_SHARED_STORES", {})
    yield
    for store in pool._SHARED_STORES.values():
        store.close()


class TestKeyedPool:
    def test_bare_calls_share_one_default_runner(self):
        assert get_runner() is get_runner()

    def test_one_runner_per_store_file(self, tmp_path):
        runner_a = get_runner(tmp_path / "tenant_a.sqlite")
        runner_b = get_runner(tmp_path / "tenant_b.sqlite")
        assert runner_a is not runner_b
        assert get_runner(tmp_path / "tenant_a.sqlite") is runner_a
        assert runner_a.store.path != runner_b.store.path

    def test_per_tenant_runners_have_independent_caches(self, tmp_path):
        runner_a = get_runner(tmp_path / "tenant_a.sqlite")
        runner_b = get_runner(tmp_path / "tenant_b.sqlite")
        inst = uniform_instance(12, 3, 3, seed=0, integral=True)
        runner_a.run_one("class-aware-greedy", inst)
        assert runner_a.stats["tasks"] == 1
        assert runner_b.stats["tasks"] == 0  # fully independent sweep state

    def test_same_store_different_backend_shares_the_handle(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        serial = get_runner(path, backend="serial")
        queued = get_runner(path, backend="queue")
        assert serial is not queued
        assert isinstance(serial.backend, SerialBackend)
        assert isinstance(queued.backend, QueueBackend)
        # One ResultStore handle: one connection, one put counter.
        assert serial.store is queued.store

    def test_runner_kwargs_are_part_of_the_key(self, tmp_path):
        path = tmp_path / "kwargs.sqlite"
        plain = get_runner(path, backend="serial")
        timed = get_runner(path, backend="serial", timeout=1.0)
        assert timed is not plain
        assert (plain.timeout, timed.timeout) == (None, 1.0)
        assert timed.store is plain.store
        # Nested options are keyed by content, not by dict order.
        first = get_runner(path, backend="queue",
                           backend_options={"poll_s": 0.01, "lease_s": 5.0})
        assert get_runner(path, backend="queue",
                          backend_options={"lease_s": 5.0,
                                           "poll_s": 0.01}) is first


class TestAutoRefit:
    @pytest.fixture(autouse=True)
    def _refit_every_two_puts(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_REFIT_EVERY", 2)

    def test_refit_triggers_after_refit_every_puts(self, tmp_path):
        runner = BatchRunner(max_workers=1, store=tmp_path / "refit.sqlite")
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(3)]
        assert runner.cost_model() is None  # cold store: nothing to fit
        runner.run(["class-aware-greedy"], instances)  # 3 puts > 2
        model = runner.cost_model()  # re-armed by the put counter
        assert model is not None
        assert model.known_algorithms() == ["class-aware-greedy"]

    def test_shared_store_puts_advance_every_tenants_refit(self, tmp_path):
        """With get_runner sharing one ResultStore handle, tenant A's
        writes refresh tenant B's predictions."""
        from repro.store import ResultStore

        store = ResultStore(tmp_path / "shared.sqlite")
        writer = BatchRunner(max_workers=1, store=store)
        reader = BatchRunner(max_workers=1, store=store)
        assert reader.cost_model() is None
        instances = [uniform_instance(12, 3, 3, seed=s, integral=True)
                     for s in range(3)]
        writer.run(["class-aware-greedy"], instances)
        # The reader never put anything itself, but the shared counter
        # crossed its threshold: its next write-through re-arms.
        reader.run(["lpt-with-setups"], instances[:1])
        model = reader.cost_model()
        assert model is not None
        assert "class-aware-greedy" in model.known_algorithms()
        store.close()
