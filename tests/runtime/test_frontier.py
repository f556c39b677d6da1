"""Unit tests for the on-disk frontier store and the lease table.

The resume *differential* (kill -9 mid-run, resume, compare bit-for-bit
-- ``tests/properties/test_resume_differential.py``) is the end-to-end
evidence; these tests pin the store's mechanics in isolation: header
round-trip, journal replay, torn-tail discard, compaction equivalence,
fingerprint validation, and the lease grant/renew/expire protocol.
"""

import json
import os

import pytest

from repro.analysis.metrics import ExplorationMetrics, deterministic_view
from repro.runtime import (ExplorationStats, FrontierMismatch, FrontierStore,
                           explore_parallel)
from repro.runtime.explore import ShardViolation
from repro.runtime.frontier import (COMPACT_INTERVAL,
                                    FRONTIER_SCHEMA_VERSION,
                                    stats_from_dict, stats_to_dict)
from repro.runtime.lease import Lease, LeaseTable
from repro.scenarios import check_scenarios

FINGERPRINT = {"scenario": ["demo", 2, 1], "max_steps": 12,
               "max_runs": 1000, "reduction": "dpor",
               "prefix_factor": 4}

SHARDS = [((0,), ()), ((1,), (0,)), ((0, 1), (1,))]


def make_stats(complete=3, violation=False):
    v = None
    if violation:
        v = ShardViolation(order_key=(1, 0), schedule=(1, 0, 1),
                           message="agreement violated",
                           error_type="AssertionError")
    return ExplorationStats(complete_runs=complete, truncated_runs=1,
                            max_depth_seen=5, pruned_runs=2, violation=v)


def begin_store(path):
    store = FrontierStore(str(path))
    store.begin(FINGERPRINT, make_stats(0), {"peak_frontier_size": 3},
                SHARDS)
    return store


class TestStatsCodec:
    def test_round_trip_without_violation(self):
        stats = make_stats()
        assert stats_from_dict(stats_to_dict(stats)) == stats

    def test_round_trip_with_violation_is_bit_for_bit(self):
        # Tuples, not lists: a decoded ShardViolation must compare equal
        # to the live dataclass or the resume differential breaks.
        stats = make_stats(violation=True)
        decoded = stats_from_dict(json.loads(json.dumps(
            stats_to_dict(stats))))
        assert decoded == stats
        assert decoded.violation.order_key == (1, 0)

    def test_merge_of_decoded_equals_merge_of_live(self):
        a, b = make_stats(3), make_stats(5, violation=True)
        live = a.merge(b)
        decoded = stats_from_dict(stats_to_dict(a)).merge(
            stats_from_dict(stats_to_dict(b)))
        assert decoded == live


class TestStoreLifecycle:
    def test_header_round_trips(self, tmp_path):
        path = tmp_path / "frontier.jsonl"
        store = begin_store(path)
        store.close()
        assert store.exists()

        loaded = FrontierStore(str(path))
        loaded.load()
        assert loaded.fingerprint == FINGERPRINT
        assert loaded.expansion_stats == make_stats(0)
        assert loaded.expansion_counters == {"peak_frontier_size": 3}
        assert loaded.shards == SHARDS
        assert loaded.completed == {}
        assert loaded.pending_indices(len(SHARDS)) == [0, 1, 2]

    def test_journaled_completions_survive_reload(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        store.record_grant(1, worker=0)
        store.record_completion(1, make_stats(7), {"sleep_set_hits": 4})
        store.close()

        loaded = FrontierStore(store.path)
        loaded.load()
        assert set(loaded.completed) == {1}
        stats, counters = loaded.completed[1]
        assert stats == make_stats(7)
        assert counters == {"sleep_set_hits": 4}
        assert loaded.pending_indices(len(SHARDS)) == [0, 2]

    def test_completion_is_idempotent_per_shard(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        store.record_completion(0, make_stats(7), {})
        before = os.path.getsize(store.path)
        store.record_completion(0, make_stats(7), {})
        store.close()
        assert os.path.getsize(store.path) == before

    def test_grants_without_completion_stay_pending(self, tmp_path):
        # A crash between grant and completion must re-execute the
        # shard: grant lines are observability, never progress.
        store = begin_store(tmp_path / "frontier.jsonl")
        for idx in range(len(SHARDS)):
            store.record_grant(idx, worker=idx % 2)
        store.close()
        loaded = FrontierStore(store.path)
        loaded.load()
        assert loaded.pending_indices(len(SHARDS)) == [0, 1, 2]

    def test_torn_tail_is_discarded(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        store.record_completion(0, make_stats(7), {})
        store.close()
        with open(store.path, "a") as handle:
            handle.write('{"kind": "complete", "shard": 2, "sta')

        loaded = FrontierStore(store.path)
        loaded.load()
        assert set(loaded.completed) == {0}
        assert loaded.pending_indices(len(SHARDS)) == [1, 2]

    def test_compaction_folds_journal_into_header(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        store.record_completion(0, make_stats(7), {"sleep_hits": 1})
        store.record_completion(2, make_stats(9), {})
        store.compact()
        store.close()

        with open(store.path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1  # header only; journal folded in

        loaded = FrontierStore(store.path)
        loaded.load()
        assert set(loaded.completed) == {0, 2}
        assert loaded.completed[0][0] == make_stats(7)
        assert loaded.pending_indices(len(SHARDS)) == [1]

    def test_compaction_triggers_automatically(self, tmp_path):
        many = [((i,), ()) for i in range(COMPACT_INTERVAL + 8)]
        store = FrontierStore(str(tmp_path / "frontier.jsonl"))
        store.begin(FINGERPRINT, make_stats(0), {}, many)
        for idx in range(COMPACT_INTERVAL + 2):
            store.record_completion(idx, make_stats(1), {})
        store.close()
        with open(store.path) as handle:
            lines = handle.read().splitlines()
        # At least one compaction ran: far fewer lines than completions.
        assert len(lines) < COMPACT_INTERVAL
        loaded = FrontierStore(store.path)
        loaded.load()
        assert len(loaded.completed) == COMPACT_INTERVAL + 2

    def test_merged_completed_stats_folds_in_shard_order(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        store.record_completion(2, make_stats(9), {})
        store.record_completion(0, make_stats(7, violation=True), {})
        merged = store.merged_completed_stats()
        store.close()
        assert merged == make_stats(7, violation=True).merge(make_stats(9))


class TestValidation:
    def test_matching_fingerprint_passes(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        store.validate(dict(FINGERPRINT))
        store.close()

    def test_mismatch_names_every_differing_key(self, tmp_path):
        store = begin_store(tmp_path / "frontier.jsonl")
        changed = dict(FINGERPRINT, max_steps=99, reduction="naive")
        with pytest.raises(FrontierMismatch) as excinfo:
            store.validate(changed)
        store.close()
        assert set(excinfo.value.mismatched) == {"max_steps", "reduction"}
        assert excinfo.value.mismatched["max_steps"] == (12, 99)
        assert "max_steps" in str(excinfo.value)
        assert "reduction" in str(excinfo.value)

    def test_empty_store_is_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        store = FrontierStore(str(path))
        with pytest.raises(ValueError, match="empty"):
            store.load()

    def test_foreign_header_is_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"kind": "exploration"}) + "\n")
        store = FrontierStore(str(path))
        with pytest.raises(ValueError, match="no header"):
            store.load()

    def test_legacy_state_cache_key_is_ignored(self, tmp_path):
        store = FrontierStore(str(tmp_path / "frontier.jsonl"))
        store.begin(dict(FINGERPRINT, state_cache=False), make_stats(0),
                    {}, SHARDS)
        store.validate(dict(FINGERPRINT))
        store.close()

    def test_legacy_state_cache_store_resumes_to_the_uninterrupted_view(
            self, tmp_path):
        # A half-finished store written while the DPOR state cache
        # existed: its header fingerprint carries "state_cache": true
        # and its completions carry cache counters.
        sc = check_scenarios(n=3)["adopt-commit"]

        def run(frontier=None):
            metrics = ExplorationMetrics(scenario="adopt-commit",
                                         engine="dpor")
            explore_parallel(sc.build, sc.check, jobs=1,
                             max_steps=sc.max_steps, metrics=metrics,
                             frontier=frontier)
            return metrics.finalize().to_dict()

        reference = run()
        path = tmp_path / "frontier.jsonl"
        run(FrontierStore(str(path)))
        header = json.loads(path.read_text().splitlines()[0])
        header["fingerprint"]["state_cache"] = True
        completed = sorted(header["completed"].items(),
                           key=lambda item: int(item[0]))
        kept = dict(completed[:len(completed) // 2])
        for entry in kept.values():
            entry["counters"].update(cache_hits=3, cache_skipped_runs=7)
        header["completed"] = kept
        path.write_text(json.dumps(header) + "\n")

        resumed = run(FrontierStore(str(path)))
        assert deterministic_view(resumed) == deterministic_view(reference)
        assert resumed["cache_hits"] == resumed["cache_skipped_runs"] == 0

    def test_future_schema_is_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"kind": "frontier_header",
             "frontier_schema": FRONTIER_SCHEMA_VERSION + 1}) + "\n")
        store = FrontierStore(str(path))
        with pytest.raises(ValueError, match="schema"):
            store.load()


class TestLeaseTable:
    def test_grant_and_holder(self):
        table = LeaseTable(timeout=10.0)
        lease = table.grant(3, worker=1, now=100.0)
        assert isinstance(lease, Lease)
        assert lease.expires_at == 110.0
        assert table.holder(3) == 1
        assert table.holder(4) is None
        assert len(table) == 1

    def test_renew_extends_and_counts(self):
        table = LeaseTable(timeout=10.0)
        table.grant(3, worker=1, now=100.0)
        assert table.renew(3, worker=1, now=105.0)
        lease = table._leases[3]
        assert lease.expires_at == 115.0
        assert lease.renewals == 1

    def test_stale_holder_cannot_renew_a_regranted_lease(self):
        table = LeaseTable(timeout=10.0)
        table.grant(3, worker=1, now=100.0)
        table.grant(3, worker=2, now=111.0)  # re-grant after expiry
        assert not table.renew(3, worker=1, now=112.0)
        assert table.renew(3, worker=2, now=112.0)
        assert table.holder(3) == 2

    def test_renew_after_release_is_a_noop(self):
        table = LeaseTable(timeout=10.0)
        table.grant(3, worker=1, now=100.0)
        released = table.release(3)
        assert released is not None and released.shard == 3
        assert not table.renew(3, worker=1, now=101.0)
        assert len(table) == 0

    def test_expired_lists_lapsed_leases_in_shard_order(self):
        table = LeaseTable(timeout=10.0)
        table.grant(5, worker=0, now=100.0)
        table.grant(2, worker=1, now=100.0)
        table.grant(7, worker=2, now=109.0)
        lapsed = table.expired(now=110.0)
        assert [lease.shard for lease in lapsed] == [2, 5]

    def test_heartbeat_keeps_a_lease_alive(self):
        table = LeaseTable(timeout=10.0)
        table.grant(1, worker=0, now=100.0)
        for tick in range(1, 30):
            assert table.renew(1, worker=0, now=100.0 + tick)
        assert table.expired(now=130.0) == []
