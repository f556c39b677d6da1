"""Budget interruption: ExplorationInterrupted carries partial stats."""

import pytest

from repro.runtime import ExplorationInterrupted, explore
from repro.scenarios import build_scenario


class TestInterruption:
    def test_max_runs_carries_reason_and_partial_stats(self):
        scenario = build_scenario("adopt-commit")
        with pytest.raises(ExplorationInterrupted) as info:
            explore(scenario.build, scenario.check,
                    max_steps=scenario.max_steps, max_runs=2,
                    reduction="dpor")
        assert info.value.reason == "max_runs"
        assert info.value.stats is not None
        assert info.value.stats.total_runs == 2

    def test_timeout_carries_reason(self):
        scenario = build_scenario("adopt-commit")
        with pytest.raises(ExplorationInterrupted) as info:
            explore(scenario.build, scenario.check,
                    max_steps=scenario.max_steps, timeout=1e-9,
                    reduction="dpor")
        assert info.value.reason == "timeout"

    def test_legacy_runtimeerror_match_still_works(self):
        # ExplorationInterrupted subclasses RuntimeError and keeps the
        # historical message, so pre-existing budget expectations hold.
        scenario = build_scenario("adopt-commit")
        with pytest.raises(RuntimeError, match="max_runs"):
            explore(scenario.build, scenario.check,
                    max_steps=scenario.max_steps, max_runs=1)

    def test_parallel_interrupt_carries_reason(self):
        scenario = build_scenario("adopt-commit")
        with pytest.raises(ExplorationInterrupted) as info:
            explore(scenario.build, scenario.check,
                    max_steps=scenario.max_steps, max_runs=2,
                    reduction="dpor", jobs=2)
        assert info.value.reason == "max_runs"

    def test_warm_cache_interrupt_emits_valid_partial_record(self):
        # A budget that fires deep into the walk (the name dates from
        # the retired state cache, which was warm by then) still emits
        # a partial metrics record of the current schema, and the
        # retired cache fields read 0.
        from repro.analysis.metrics import (METRICS_SCHEMA_VERSION,
                                            ExplorationMetrics)

        scenario = build_scenario("adopt-commit")
        metrics = ExplorationMetrics(scenario="adopt-commit",
                                     engine="dpor")
        with pytest.raises(ExplorationInterrupted) as info:
            explore(scenario.build, scenario.check,
                    max_steps=scenario.max_steps, max_runs=40,
                    reduction="dpor", metrics=metrics)
        metrics.record_interrupted(info.value.reason, info.value.stats)
        record = metrics.finalize().to_dict()
        assert record["schema_version"] == METRICS_SCHEMA_VERSION
        assert record["outcome"] == "interrupted"
        assert record["partial"] is True
        assert record["interrupt_reason"] == "max_runs"
        assert record["total_runs"] == 40
        assert record["cache_hits"] == 0
        assert record["cache_skipped_runs"] == 0

    def test_timeout_with_cache_enabled_still_emits_record(self):
        # Same pinning for the wall-clock budget (`check --timeout`):
        # the record path works however early the deadline fires.
        from repro.analysis.metrics import ExplorationMetrics

        scenario = build_scenario("adopt-commit")
        metrics = ExplorationMetrics(scenario="adopt-commit",
                                     engine="dpor")
        with pytest.raises(ExplorationInterrupted) as info:
            explore(scenario.build, scenario.check,
                    max_steps=scenario.max_steps, timeout=1e-9,
                    reduction="dpor", metrics=metrics)
        metrics.record_interrupted(info.value.reason, info.value.stats)
        record = metrics.finalize().to_dict()
        assert record["outcome"] == "interrupted"
        assert record["interrupt_reason"] == "timeout"
        assert record["partial"] is True
