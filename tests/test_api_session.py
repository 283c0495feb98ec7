"""The Session facade: config resolution, execution modes, runner wiring.

What the facade promises:

* ``SessionConfig.resolve`` layers **kwargs > environment > defaults**;
* ``Session.runner()`` resolves through the keyed pool, keyed on the
  whole config (two sessions share a runner iff their configs match);
* ``run`` / ``stream`` / ``portfolio`` execute compiled scenarios with
  results aligned to the compile order, failures surfaced, and tables
  honouring the spec's declared columns;
* ``build_runner`` hands out dedicated runners; a spec with its own
  ``timeout_s`` runs on the pooled runner of the config with that
  timeout, never reconfiguring the session's own pool entry.
"""

from __future__ import annotations

import math

import pytest

from repro.api import (
    AlgorithmSweep,
    ScalePreset,
    ScenarioSpec,
    Session,
    SessionConfig,
)
from repro.algorithms.base import AlgorithmResult
from repro.core.bounds import greedy_upper_bound
from repro.generators import uniform_instance
from repro.runtime import BatchTask, QueueBackend, SerialBackend, pool
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def isolated_runner_pool(monkeypatch):
    monkeypatch.setattr(pool, "_RUNNERS", {})
    monkeypatch.setattr(pool, "_SHARED_STORES", {})
    for var in ("REPRO_RESULT_STORE", "REPRO_BACKEND", "REPRO_AUTOSCALE"):
        monkeypatch.delenv(var, raising=False)
    yield
    for store in pool._SHARED_STORES.values():
        store.close()


def _spec(**overrides) -> ScenarioSpec:
    fields = dict(
        name="session-demo",
        suite="e1_lpt_uniform",
        algorithms=(AlgorithmSweep.make("lpt-with-setups"),
                    AlgorithmSweep.make("class-aware-greedy")),
        scales={"quick": ScalePreset(max_points=2)},
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestSessionConfig:
    def test_defaults(self):
        config = SessionConfig.resolve()
        assert config.store_path is None
        assert config.backend is None
        assert config.autoscale == 0

    def test_environment_layer(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "env.sqlite"))
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        monkeypatch.setenv("REPRO_AUTOSCALE", "3")
        config = SessionConfig.resolve()
        assert config.store_path == str(tmp_path / "env.sqlite")
        assert config.backend == "serial"
        assert config.autoscale == 3

    def test_kwargs_beat_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BACKEND", "pool")
        monkeypatch.setenv("REPRO_AUTOSCALE", "3")
        config = SessionConfig.resolve(backend="serial", autoscale=0)
        assert config.backend == "serial"
        assert config.autoscale == 0

    @pytest.mark.parametrize("raw", ["two", "-1", "²"])
    def test_invalid_autoscale_environment_names_the_variable(
            self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_AUTOSCALE", raw)
        with pytest.raises(ValueError, match="REPRO_AUTOSCALE"):
            SessionConfig.resolve()
        # An explicit kwarg never reads the variable.
        assert SessionConfig.resolve(autoscale=1).autoscale == 1

    @pytest.mark.parametrize("bad", [0, 0.0, -1.0, math.nan, math.inf])
    def test_bad_timeout_names_the_field(self, bad):
        with pytest.raises(ValueError, match="timeout_s"):
            SessionConfig.resolve(timeout_s=bad)
        with pytest.raises(ValueError, match="timeout_s"):
            Session(timeout_s=bad)
        with pytest.raises(ValueError, match="timeout_s"):
            Session(SessionConfig(), timeout_s=bad)

    @pytest.mark.parametrize("bad", [-3, 1.5, math.nan])
    def test_bad_autoscale_names_the_field(self, bad):
        """A negative or fractional worker count raises, as a bad
        ``REPRO_AUTOSCALE`` does, instead of turning autoscaling off."""
        with pytest.raises(ValueError, match="autoscale"):
            Session(autoscale=bad, backend="queue")
        with pytest.raises(ValueError, match="autoscale"):
            SessionConfig.resolve(autoscale=bad)

    def test_autoscale_environment_reaches_the_queue_backend(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_AUTOSCALE", "2")
        assert Session(backend="queue").build_runner().backend.autoscale == 2
        monkeypatch.setenv("REPRO_AUTOSCALE", "")
        assert SessionConfig.resolve().autoscale == 0

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError, match="bakend"):
            SessionConfig.resolve(bakend="serial")
        with pytest.raises(TypeError, match="bakend"):
            Session(bakend="serial")

    def test_the_cache_is_not_an_option(self):
        with pytest.raises(TypeError, match="cache"):
            Session(cache=False)
        with pytest.raises(TypeError, match="cache"):
            SessionConfig(cache=False)

    def test_session_adopts_config_with_overrides(self):
        config = SessionConfig.resolve(backend="serial")
        session = Session(config, max_workers=1)
        assert session.config.backend == "serial"
        assert session.config.max_workers == 1

    def test_autoscale_feeds_queue_backend_options(self):
        config = SessionConfig.resolve(backend="queue", autoscale=2)
        assert config.runner_kwargs()["backend_options"]["autoscale"] == 2
        # ...but never leaks into non-queue backends.
        serial = SessionConfig.resolve(backend="serial", autoscale=2)
        assert "backend_options" not in serial.runner_kwargs()


class TestRunnerWiring:
    def test_runner_comes_from_the_keyed_pool(self, tmp_path):
        path = str(tmp_path / "shared.sqlite")
        a = Session(store_path=path, backend="serial")
        b = Session(store_path=path, backend="serial")
        assert a.runner() is b.runner()
        assert a.runner() is pool.get_runner(path, backend="serial")

    def test_build_runner_is_dedicated(self):
        session = Session(backend="serial")
        assert session.build_runner() is not session.build_runner()
        assert isinstance(session.build_runner().backend, SerialBackend)

    def test_build_runner_overrides_win(self, tmp_path):
        session = Session(store_path=str(tmp_path / "s.sqlite"),
                          backend="serial")
        runner = session.build_runner(store=None, max_workers=1, timeout=2.0)
        assert runner.store is None
        assert runner.max_workers == 1
        assert runner.timeout == 2.0

    def test_timeout_spec_gets_the_pooled_runner_with_its_timeout(self):
        session = Session(backend="serial")
        shared = session.runner()
        spec = _spec(timeout_s=30.0)
        runner = session._runner_for(spec)
        assert runner is not shared
        assert runner is session._runner_for(spec)  # pooled, not rebuilt
        assert runner is Session(backend="serial", timeout_s=30.0).runner()
        assert runner.timeout == 30.0
        run = session.run(spec)
        assert len(run) == 4
        assert shared.timeout is None  # the pool entry was not touched
        assert all(r.makespan < float("inf") for r in run.results)

    def test_budget_spec_reuses_the_pooled_store_handle(self, tmp_path):
        """A spec with a timeout gets another runner but NOT another
        SQLite connection: repeated runs in a long-lived process must not
        leak one store handle per run."""
        session = Session(store_path=str(tmp_path / "budget.sqlite"),
                          backend="serial")
        spec = _spec(timeout_s=30.0)
        runner = session._runner_for(spec)
        assert runner is not session.runner()
        assert runner.timeout == 30.0
        assert session.runner().timeout is None
        assert runner.store is session.runner().store

    def test_budget_spec_on_queue_keeps_the_config_autoscale(self, tmp_path):
        session = Session(store_path=str(tmp_path / "q.sqlite"),
                          backend="queue", autoscale=2)
        runner = session._runner_for(_spec(timeout_s=30.0))
        assert runner.backend.autoscale == 2
        assert runner.timeout == 30.0


    def test_timeout_portfolio_serves_a_cold_stores_winners(self, tmp_path):
        """A store recording every candidate far over the spec's timeout
        changes neither which candidates run nor the winners served."""
        spec = _spec(mode="portfolio", timeout_s=30.0)
        want = Session(backend="serial").portfolio(spec).results
        path = tmp_path / "warm.sqlite"
        with ResultStore(path) as store:
            inst = uniform_instance(30, 3, 4, seed=99, integral=True)
            _, schedule = greedy_upper_bound(inst)
            for sweep in spec.algorithms:
                store.put(BatchTask.make(sweep.name, inst),
                          AlgorithmResult.from_schedule(sweep.name, schedule,
                                                        runtime=1000.0))
        session = Session(store_path=str(path), backend="serial")
        got = session.portfolio(spec).results
        assert [(r.name, r.makespan, sorted(r.meta)) for r in got] == \
            [(r.name, r.makespan, sorted(r.meta)) for r in want]
        assert session._runner_for(spec).stats["tasks"] == 4


class TestOneConfigurationPath:
    """A session's runner depends on its own config, never on which
    runner the process happened to build first."""

    def test_plain_session_never_gets_another_sessions_runner(self,
                                                              tmp_path):
        queued = Session(store_path=str(tmp_path / "a.sqlite"),
                         backend="queue").runner()
        plain = Session().runner()
        assert plain is not queued
        assert plain.store is None
        assert not isinstance(plain.backend, QueueBackend)

    def test_runner_kwargs_hold_on_a_shared_store_and_backend(self,
                                                              tmp_path):
        path = str(tmp_path / "p.sqlite")
        plain = Session(store_path=path, backend="serial").runner()
        tuned = Session(store_path=path, backend="serial",
                        timeout_s=1.0).runner()
        assert tuned is not plain
        assert tuned.timeout == 1.0
        assert tuned.store is plain.store  # one handle per store file

    def test_storeless_runner_never_gains_a_store(self, tmp_path):
        plain = Session().runner()
        Session(store_path=str(tmp_path / "later.sqlite")).runner()
        assert plain.store is None

    def test_autoscale_kwarg_beats_the_environment(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.setenv("REPRO_AUTOSCALE", "3")
        session = Session(store_path=str(tmp_path / "q.sqlite"),
                          backend="queue", autoscale=0)
        assert session.runner().backend.autoscale == 0
        assert session.build_runner().backend.autoscale == 0


class TestScenarioExecution:
    def test_run_produces_aligned_results_and_nonempty_table(self):
        session = Session(backend="serial")
        run = session.run(_spec())
        assert len(run) == 4  # 2 algorithms x 2 points
        lpt = run.by_algorithm("lpt-with-setups")
        greedy = run.by_algorithm("class-aware-greedy")
        assert [r.name for r in lpt] == ["lpt-with-setups"] * 2
        assert [r.name for r in greedy] == ["class-aware-greedy"] * 2
        table = run.table()
        assert len(table.rows) == 4
        assert "algorithm" in table.columns

    def test_declared_columns_select_and_order(self):
        spec = _spec(columns=("makespan", "algorithm"))
        table = Session(backend="serial").run(spec).table()
        assert table.columns == ["makespan", "algorithm"]

    def test_unknown_declared_column_rejected(self):
        spec = _spec(columns=("algorithm", "no_such_column"))
        with pytest.raises(ValueError, match="no_such_column"):
            Session(backend="serial").run(spec).table()

    def test_stream_yields_every_task_with_provenance(self):
        session = Session(backend="serial")
        spec = _spec()
        seen = list(session.stream(spec))
        assert len(seen) == 4
        for info, result in seen:
            assert info.algorithm == result.name

    def test_portfolio_winner_never_loses_to_a_candidate(self):
        spec = ScenarioSpec(
            name="portfolio-demo",
            suite="e1_lpt_uniform",
            mode="portfolio",
            algorithms=(AlgorithmSweep.make("lpt-with-setups"),
                        AlgorithmSweep.make("lpt-class-oblivious"),
                        AlgorithmSweep.make("class-aware-greedy")),
            scales={"quick": ScalePreset(max_points=2)},
        )
        session = Session(backend="serial")
        portfolio = session.portfolio(spec)
        assert len(portfolio) == 2  # one winner per instance
        grid = session.run(_spec(mode="grid"))
        for idx, winner in enumerate(portfolio.results):
            for candidate in (grid.by_algorithm("lpt-with-setups"),
                              grid.by_algorithm("class-aware-greedy")):
                assert winner.makespan <= candidate[idx].makespan
        table = portfolio.table()
        assert "winner" in table.columns
        assert len(table.rows) == 2

    def test_grid_ambiguity_requires_pinned_params(self):
        spec = _spec(algorithms=(
            AlgorithmSweep.make("ptas-uniform", {"epsilon": [0.5, 0.25]}),))
        run = Session(backend="serial").run(spec)
        with pytest.raises(ValueError, match="ambiguous"):
            run.by_algorithm("ptas-uniform")
        pinned = run.by_algorithm("ptas-uniform", epsilon=0.5)
        assert len(pinned) == 2

    def test_reference_ratios_populate_the_table(self):
        from repro.api import ReferencePolicy

        spec = ScenarioSpec(
            name="ref-demo",
            suite="e2_ptas_uniform",
            algorithms=(AlgorithmSweep.make("lpt-with-setups"),),
            scales={"quick": ScalePreset(max_points=1)},
            reference=ReferencePolicy(exact_limit=500),
        )
        run = Session(backend="serial").run(spec)
        table = run.table()
        assert "ratio" in table.columns and "reference" in table.columns
        assert all(row["ratio"] >= 1.0 - 1e-9 for row in table.rows)

    def test_references_are_stored_milp_tasks(self, tmp_path, monkeypatch):
        """A re-run on the same store reads its references back: it solves
        no MILP."""
        from repro.api import ReferencePolicy
        from repro.lp.model import Model

        spec = _spec(suite="e2_ptas_uniform",
                     scales={"quick": ScalePreset(max_points=1)},
                     reference=ReferencePolicy(exact_limit=500))
        store_path = str(tmp_path / "refs.sqlite")
        first = Session(store_path=store_path, backend="serial").run(spec)
        assert [ref.kind for ref in first.references] == ["optimal"]
        pool.reset_runner_pool()

        def no_solve(*args, **kwargs):
            raise AssertionError("a stored reference was solved again")

        monkeypatch.setattr(Model, "_solve_mip", no_solve)
        second = Session(store_path=store_path, backend="serial").run(spec)
        assert second.references == first.references

    def test_a_timed_out_reference_falls_back_to_the_lp_bound(self):
        from repro.analysis.ratios import reference_makespans
        from repro.runtime import BatchRunner

        inst = uniform_instance(10, 3, 3, seed=1, integral=True)
        runner = BatchRunner(max_workers=1, timeout=1e-6)
        (ref,) = reference_makespans(runner, [inst])
        assert ref.kind == "lp"

    def test_failures_raise_by_default(self):
        spec = ScenarioSpec(
            name="boom",
            suite="e1_lpt_uniform",
            # An unsupported kwarg makes the algorithm raise on a worker.
            algorithms=(AlgorithmSweep.make("lpt-with-setups",
                                            {"no_such_kwarg": 1}),),
            scales={"quick": ScalePreset(max_points=1)},
        )
        session = Session(backend="serial")
        with pytest.raises(RuntimeError):
            session.run(spec)
        # stream surfaces the sentinel instead of raising.
        (info, result), = list(session.stream(spec))
        assert result.meta.get("error")