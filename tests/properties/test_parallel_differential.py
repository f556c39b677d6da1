"""Differential tier: serial vs parallel exploration must agree exactly.

The parallel backend's whole value rests on one claim: ``jobs`` controls
only how many OS processes execute the shards, never which shards exist
or what they report.  These tests pin that claim for every registry
scenario -- identical ``ExplorationStats`` (hence identical
``total_runs`` and ``reduction_ratio``) between ``jobs=1`` and
``jobs=4``, and for the deliberately-broken demo the same minimal shrunk
counterexample schedule.  Run just this tier with ``pytest -m parallel``.
"""

import pytest

from repro.runtime import CounterexampleFound, explore
from repro.scenarios import SOUND_SCENARIOS, check_scenarios

pytestmark = pytest.mark.parallel


def _explore_with(sc, jobs, reduction="dpor"):
    return explore(sc.build, sc.check,
                   crash_plan_factory=sc.crash_plan_factory,
                   max_steps=sc.max_steps, max_runs=sc.max_runs,
                   reduction=reduction, jobs=jobs)


@pytest.mark.parametrize("name", SOUND_SCENARIOS)
def test_dpor_jobs1_equals_jobs4(name):
    sc = check_scenarios(n=3)[name]
    serial = _explore_with(sc, jobs=1)
    parallel = _explore_with(sc, jobs=4)
    assert serial == parallel  # every field, not just totals
    assert serial.total_runs == parallel.total_runs
    assert serial.reduction_ratio == parallel.reduction_ratio
    assert serial.complete_runs > 0
    assert serial.truncated_runs == 0, \
        f"{name} verdict must not be depth-bounded: {serial}"


@pytest.mark.parametrize("name", ["adopt-commit", "queue-2cons"])
def test_dpor_jobs1_equals_jobs2_and_jobs3(name):
    # Pool sizes other than 4, including one that does not divide the
    # shard count: the merged statistics must not depend on how the
    # shards are spread over the workers.
    sc = check_scenarios(n=3)[name]
    baseline = _explore_with(sc, jobs=1)
    for jobs in (2, 3):
        assert _explore_with(sc, jobs=jobs) == baseline, f"jobs={jobs}"


@pytest.mark.parametrize("name", ["queue-2cons", "adopt-commit"])
def test_naive_jobs1_equals_jobs4(name):
    # Naive sharding partitions the tree exactly; cross-check the naive
    # engine too on the scenarios where it is affordable (n=2 sizes).
    sc = check_scenarios(n=2)[name]
    serial = _explore_with(sc, jobs=1, reduction="naive")
    parallel = _explore_with(sc, jobs=4, reduction="naive")
    assert serial == parallel
    classic = explore(sc.build, sc.check,
                      crash_plan_factory=sc.crash_plan_factory,
                      max_steps=sc.max_steps, reduction="naive")
    assert classic.total_runs == serial.total_runs


def test_broken_demo_same_minimal_counterexample():
    sc = check_scenarios()["broken-demo"]
    outcomes = []
    for jobs in (1, 4):
        with pytest.raises(CounterexampleFound) as excinfo:
            _explore_with(sc, jobs=jobs)
        outcomes.append(excinfo.value)
    first, second = outcomes
    assert first.counterexample.prefix == second.counterexample.prefix
    assert first.counterexample.schedule == second.counterexample.schedule
    assert first.stats == second.stats
    # The shrunk artifact must still replay to a violation.
    assert first.counterexample.reproduces()


def test_broken_demo_matches_classic_serial_counterexample():
    # The sharded backend must find the same minimal prefix the classic
    # (jobs=None) DPOR engine reports, so --jobs never changes a repro.
    sc = check_scenarios()["broken-demo"]
    with pytest.raises(CounterexampleFound) as classic:
        explore(sc.build, sc.check, max_steps=sc.max_steps,
                reduction="dpor")
    with pytest.raises(CounterexampleFound) as sharded:
        _explore_with(sc, jobs=4)
    assert classic.value.counterexample.prefix == \
        sharded.value.counterexample.prefix
    assert classic.value.counterexample.schedule == \
        sharded.value.counterexample.schedule


def test_dpor_jobs_agree_with_byzantine_faults_active():
    # The sharding claim must survive the fault layer: with a Byzantine
    # behavior attached (and crashes lifted into the FaultPlan), shard
    # statistics still cannot depend on the worker count.  Adopt-commit
    # is the scenario whose proposals are opaque values, so corrupting
    # them is type-safe; the check is relaxed to liveness-only because
    # a corrupted proposal legitimately changes decided values.
    from repro.runtime import FaultPlan, byzantine_writer

    sc = check_scenarios(n=2)["adopt-commit"]

    def fault_factory():
        plan = byzantine_writer(0, "v1", obj="AC1", method="write")
        if sc.crash_plan_factory is not None:
            base = sc.crash_plan_factory()
            plan = FaultPlan(points=base.points,
                             behaviors=plan.behaviors)
        return plan

    def relaxed_check(result):
        assert not result.deadlocked, result.summary()

    serial = explore(sc.build, relaxed_check,
                     crash_plan_factory=fault_factory,
                     max_steps=sc.max_steps, max_runs=sc.max_runs,
                     reduction="dpor", jobs=1)
    parallel = explore(sc.build, relaxed_check,
                       crash_plan_factory=fault_factory,
                       max_steps=sc.max_steps, max_runs=sc.max_runs,
                       reduction="dpor", jobs=4)
    assert serial == parallel
    assert serial.complete_runs > 0
