"""Unit tests for the canonical state fingerprint.

A fingerprint is only sound if it never *merges* two states the
remainder of a run could tell apart.  These tests pin the two
directions separately:

* representation noise that a run can NOT observe -- dict/set insertion
  order, lazy materialisation of default (``BOTTOM``) cells -- must not
  change the fingerprint;
* state a run CAN observe -- written values, type distinctions like
  ``True`` vs ``1``, armed-vs-fired fault triggers, message-fault
  occurrence counters -- must always change it.
"""

from repro.memory.base import BOTTOM
from repro.memory.families import RegisterFamily, SnapshotFamily
from repro.messaging.engine import Envelope
from repro.messaging.faults import DropFault, MessageFaultPlan
from repro.runtime import Fingerprinter, ObjectProxy
from repro.runtime.faults import byzantine_writer


class TestCanon:
    def test_dict_insertion_order_is_invisible(self):
        f = Fingerprinter()
        assert f.canon({"a": 1, "b": 2}) == f.canon({"b": 2, "a": 1})

    def test_nested_dict_order_is_invisible(self):
        f = Fingerprinter()
        one = {"outer": [{"x": 1, "y": 2}], "z": {3, 1, 2}}
        two = {"z": {2, 1, 3}, "outer": [{"y": 2, "x": 1}]}
        assert f.canon(one) == f.canon(two)

    def test_set_element_order_is_invisible(self):
        f = Fingerprinter()
        assert f.canon({"p", "q", "r"}) == f.canon({"r", "p", "q"})

    def test_equal_hash_equal_scalars_of_distinct_type_split(self):
        # True == 1 == 1.0 in Python; a run that branches on type (or
        # formats the value) can tell them apart, so canon must too.
        f = Fingerprinter()
        forms = {repr(f.canon(v)) for v in (True, 1, 1.0)}
        assert len(forms) == 3

    def test_opaque_tokens_are_per_object_and_stable(self):
        f = Fingerprinter()

        class Mystery:
            pass

        a, b = Mystery(), Mystery()
        assert f.canon(a) == f.canon(a)
        assert f.canon(a) != f.canon(b)


class TestObjectFingerprint:
    def test_lazy_bottom_materialisation_is_invisible(self):
        # Snapshotting a never-written instance materialises its
        # [BOTTOM] * size cells; the audited state is unchanged, so the
        # fingerprint must be too.
        f = Fingerprinter()
        snap = SnapshotFamily("snap", size=3)
        before = f.object_fingerprint(snap)
        assert snap.op_snapshot(0, "k") == (BOTTOM, BOTTOM, BOTTOM)
        assert f.object_fingerprint(snap) == before

    def test_written_cell_changes_the_fingerprint(self):
        f = Fingerprinter()
        snap = SnapshotFamily("snap", size=3)
        before = f.object_fingerprint(snap)
        snap.op_write(1, "k", 1, "v")
        assert f.object_fingerprint(snap) != before

    def test_instance_insertion_order_is_invisible(self):
        # audit_state iterates the instances dict; two objects reaching
        # the same state through differently-ordered writes must agree.
        f = Fingerprinter()
        one, two = RegisterFamily("r"), RegisterFamily("r")
        one.op_write(0, "a", 1)
        one.op_write(0, "b", 2)
        two.op_write(0, "b", 2)
        two.op_write(0, "a", 1)
        assert f.object_fingerprint(one) == f.object_fingerprint(two)


class TestPlanFingerprint:
    def test_equal_fresh_fault_plans_agree(self):
        f = Fingerprinter()
        one = byzantine_writer(0, 99, obj="r")
        two = byzantine_writer(0, 99, obj="r")
        assert f.plan_fingerprint(one) == f.plan_fingerprint(two)

    def test_armed_and_fired_triggers_never_merge(self):
        # A fired (latched) persistent-corruption trigger rewrites every
        # later matching write; merging it with a fresh plan would hide
        # Byzantine behaviour from half the merged subtree.
        f = Fingerprinter()
        fresh = byzantine_writer(0, 99, obj="r")
        fired = byzantine_writer(0, 99, obj="r")
        inv = ObjectProxy("r").write("k", 1)
        assert fired.rewrite_invocation(0, 0, inv).args[-1] == 99
        assert f.plan_fingerprint(fired) != f.plan_fingerprint(fresh)

    def test_fired_trigger_fingerprint_is_not_memo_poisoned(self):
        # plan_fingerprint memoises atomic-tree states; firing mutates
        # the plan in place, so the memo must key on the *state*, not
        # the plan object.
        f = Fingerprinter()
        plan = byzantine_writer(0, 99, obj="r")
        before = f.plan_fingerprint(plan)
        plan.rewrite_invocation(0, 0, ObjectProxy("r").write("k", 1))
        assert f.plan_fingerprint(plan) != before
        plan.reset()
        assert f.plan_fingerprint(plan) == before

    def test_message_plan_occurrence_counters_never_merge(self):
        # After one matching send the drop rule is spent; the plan
        # treats the next send differently, so the states must split.
        f = Fingerprinter()
        fresh = MessageFaultPlan(faults=(DropFault(sender=0, dest=1),))
        spent = MessageFaultPlan(faults=(DropFault(sender=0, dest=1),))
        uids = iter(range(100, 200))
        env = Envelope(uid=1, sender=0, dest=1, payload="m")
        assert spent.on_send(env, lambda: next(uids)) == []
        assert f.plan_fingerprint(spent) != f.plan_fingerprint(fresh)

    def test_equal_fresh_message_plans_agree(self):
        f = Fingerprinter()
        one = MessageFaultPlan(faults=(DropFault(sender=0, dest=1),))
        two = MessageFaultPlan(faults=(DropFault(sender=0, dest=1),))
        assert f.plan_fingerprint(one) == f.plan_fingerprint(two)
