"""Object/message configurations: multiset semantics and canonical keys."""

import pytest
from hypothesis import given, strategies as st

from repro.rewriting import Configuration, Msg, Obj
from repro.rewriting.objects import _mix
from repro.rosa import model, syscalls
from repro.rosa.syscalls import WILDCARD


def sample_objects():
    return [
        Obj(1, "Process", euid=10, rdfset=frozenset()),
        Obj(2, "File", name="/etc/passwd", owner=40),
        Obj(3, "User", uid=10),
    ]


class TestObj:
    def test_attribute_access(self):
        obj = Obj(1, "Process", euid=10)
        assert obj["euid"] == 10
        assert obj.get("missing") is None
        assert obj.get("missing", 5) == 5

    def test_update_is_pure(self):
        obj = Obj(1, "Process", euid=10)
        changed = obj.update(euid=0)
        assert obj["euid"] == 10
        assert changed["euid"] == 0
        assert changed.oid == 1

    def test_equality_by_content(self):
        assert Obj(1, "P", x=1) == Obj(1, "P", x=1)
        assert Obj(1, "P", x=1) != Obj(1, "P", x=2)
        assert Obj(1, "P", x=1) != Obj(2, "P", x=1)

    def test_frozenset_attrs_hash_deterministically(self):
        a = Obj(1, "P", members=frozenset({3, 1, 2}))
        b = Obj(1, "P", members=frozenset({2, 3, 1}))
        assert a.key == b.key

    @pytest.mark.parametrize(
        "left, right",
        [
            (frozenset({0, 1, "run"}), frozenset({0, True, "run"})),
            (frozenset({frozenset({1}), frozenset({2})}), frozenset({frozenset({True}), frozenset({2})})),
            (frozenset({(1, 0), (2, 0)}), frozenset({(True, 0), (2, 0)})),
        ],
        ids=["bool-element", "nested-frozenset", "tuple-element"],
    )
    def test_equal_frozensets_give_equal_keys(self, left, right):
        # True == 1, so these objects are equal; their keys must agree.
        a, b = Obj(1, "P", members=left), Obj(1, "P", members=right)
        assert a == b
        assert a.key == b.key

    def test_repr_is_maude_style(self):
        assert repr(Obj(1, "Process", euid=10)).startswith("< 1 : Process |")


class TestMsg:
    def test_equality(self):
        assert Msg("open", 1, 3, "r") == Msg("open", 1, 3, "r")
        assert Msg("open", 1, 3, "r") != Msg("open", 1, 4, "r")

    def test_frozenset_args_canonical(self):
        assert Msg("m", frozenset({1, 2})).key == Msg("m", frozenset({2, 1})).key


class TestConfiguration:
    def test_rejects_non_elements(self):
        with pytest.raises(TypeError):
            Configuration([42])

    def test_multiset_preserves_duplicates(self):
        msg = Msg("open", 1)
        config = Configuration([msg, msg])
        assert config.count(msg) == 2
        assert len(config) == 2

    def test_ac_equality(self):
        objs = sample_objects()
        a = Configuration(objs)
        b = Configuration(list(reversed(objs)))
        assert a == b
        assert a.key == b.key
        assert hash(a) == hash(b)

    def test_find_object(self):
        config = Configuration(sample_objects())
        assert config.find_object(2)["name"] == "/etc/passwd"
        assert config.find_object(99) is None

    def test_objects_filter_by_class(self):
        config = Configuration(sample_objects())
        assert [obj.oid for obj in config.objects("User")] == [3]
        assert len(list(config.objects())) == 3

    def test_messages_filter_by_name(self):
        config = Configuration([Msg("open", 1), Msg("kill", 1)])
        assert [msg.name for msg in config.messages("kill")] == ["kill"]

    def test_add_remove(self):
        msg = Msg("open", 1)
        config = Configuration(sample_objects())
        bigger = config.add(msg)
        assert bigger.count(msg) == 1
        smaller = bigger.remove(msg)
        assert smaller == config

    def test_remove_one_of_duplicates(self):
        msg = Msg("open", 1)
        config = Configuration([msg, msg]).remove(msg)
        assert config.count(msg) == 1

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            Configuration([]).remove(Msg("open", 1))

    def test_update_object(self):
        config = Configuration(sample_objects())
        updated = config.update_object(Obj(3, "User", uid=99))
        assert updated.find_object(3)["uid"] == 99
        assert config.find_object(3)["uid"] == 10  # original untouched

    def test_update_object_missing_raises(self):
        with pytest.raises(KeyError):
            Configuration([]).update_object(Obj(9, "User", uid=0))

    def test_update_object_noop_returns_self(self):
        config = Configuration(sample_objects())
        assert config.update_object(config.find_object(3)) is config

    def test_consume(self):
        msg = Msg("setuid", 1, 0)
        proc = Obj(1, "Process", euid=10)
        config = Configuration([proc, msg])
        after = config.consume(msg, proc.update(euid=0))
        assert after.count(msg) == 0
        assert after.find_object(1)["euid"] == 0

    def test_consume_is_remove_then_update_object(self):
        msg = Msg("setuid", 1, 0)
        proc = Obj(1, "Process", euid=10)
        config = Configuration(sample_objects() + [msg, msg])
        for update in (None, proc.update(euid=0), config.find_object(3)):
            consumed = config.consume(msg, update)
            stepwise = config.remove(msg)
            if update is not None:
                stepwise = stepwise.update_object(update)
            assert consumed == stepwise and hash(consumed) == hash(stepwise)
            assert list(consumed) == list(stepwise)
        with pytest.raises(KeyError):
            config.consume(Msg("kill", 1))
        with pytest.raises(KeyError):
            config.consume(msg, Obj(9, "User", uid=0))

    def test_derived_indexes_match_a_fresh_scan(self):
        """Edits chained without lookups in between: every derived
        configuration's oid index and class order must be the ones a
        configuration built from its elements would scan."""
        first, second = Msg("open", 1), Msg("kill", 1)
        config = Configuration(sample_objects() + [first, second, first])
        config.find_object(1)
        steps = [
            lambda c: c.consume(first, c.find_object(1).update(euid=0)),
            lambda c: c.consume(second),
            lambda c: c.update_object(Obj(3, "User", uid=0)),
            lambda c: c.consume(first, Obj(2, "File", name="/etc/shadow", owner=0)),
        ]
        for length in range(1, len(steps) + 1):
            # Each chain is checked only at its end, so the later edits
            # start from configurations nobody has looked up yet.
            current = config
            for step in steps[:length]:
                current = step(current)
            fresh = Configuration(list(current))
            for cls in ("Process", "File", "User"):
                assert list(current.objects(cls)) == list(fresh.objects(cls))
            for oid in (1, 2, 3, 4):
                assert current.find_object(oid) == fresh.find_object(oid)
            assert list(current.objects()) == list(fresh.objects())
            assert current.message_names() == fresh.message_names()

    @given(st.permutations(sample_objects() + [Msg("open", 1), Msg("open", 1)]))
    def test_key_invariant_under_permutation(self, elements):
        reference = Configuration(sample_objects() + [Msg("open", 1), Msg("open", 1)])
        assert Configuration(elements).key == reference.key


# -- incremental multiset hashing ---------------------------------------------


def setuid_config(repeat=2):
    """A process that may become any of three users."""
    elements = [
        model.process_for_user(1, 10, 10),
        model.user(4, 10),
        model.user(5, 20),
        model.user(6, 30),
    ]
    elements += [syscalls.sys_setuid(1, WILDCARD, ["CapSetuid"])] * repeat
    return Configuration(elements)


class TestIncrementalHash:
    def test_add_matches_fresh_construction(self):
        base = setuid_config()
        extra = model.user(7, 40)
        assert hash(base.add(extra)) == hash(Configuration(list(base) + [extra]))
        assert base.add(extra) == Configuration(list(base) + [extra])

    def test_remove_matches_fresh_construction(self):
        base = setuid_config()
        msg = next(base.messages("setuid"))
        removed = base.remove(msg)
        rebuilt_elements = list(base)
        rebuilt_elements.remove(msg)
        assert hash(removed) == hash(Configuration(rebuilt_elements))
        assert removed == Configuration(rebuilt_elements)

    def test_update_object_matches_fresh_construction(self):
        base = setuid_config()
        proc = base.find_object(1)
        updated = base.update_object(proc.update(euid=20))
        rebuilt = [
            proc.update(euid=20) if element == proc else element
            for element in base
        ]
        assert hash(updated) == hash(Configuration(rebuilt))
        assert updated == Configuration(rebuilt)

    def test_hash_ignores_construction_order(self):
        elements = list(setuid_config())
        assert hash(Configuration(elements)) == hash(
            Configuration(list(reversed(elements)))
        )

    def test_duplicate_counts_change_the_hash(self):
        msg = Msg("socket", 1, frozenset())
        once = Configuration([msg])
        twice = Configuration([msg, msg])
        assert hash(once) != hash(twice)
        assert once != twice

    def test_mixer_is_spread_not_identity(self):
        # Plain summation of small-int hashes would collide multisets
        # like {1, 3} and {2, 2}; the mixer must keep them apart.
        assert _mix(1) + _mix(3) != _mix(2) + _mix(2)
