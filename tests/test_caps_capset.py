"""Unit and property tests for CapabilitySet and CapabilityState."""

import pytest
from hypothesis import given, strategies as st

from repro.caps import Capability, CapabilitySet, CapabilityState

capability = st.sampled_from(list(Capability))
capsets = st.frozensets(capability, max_size=10).map(CapabilitySet)


class TestConstruction:
    def test_of_accepts_mixed_spellings(self):
        caps = CapabilitySet.of("CapSetuid", Capability.CAP_CHOWN, "CAP_FOWNER")
        assert Capability.CAP_SETUID in caps
        assert Capability.CAP_CHOWN in caps
        assert Capability.CAP_FOWNER in caps
        assert len(caps) == 3

    def test_empty_is_falsy(self):
        assert not CapabilitySet.empty()
        assert len(CapabilitySet.empty()) == 0

    def test_full_contains_everything(self):
        assert len(CapabilitySet.full()) == len(Capability)

    def test_duplicates_collapse(self):
        assert len(CapabilitySet.of("CapSetuid", "CAP_SETUID")) == 1

    @pytest.mark.parametrize("text", ["", "(empty)", "empty", "   "])
    def test_parse_empty_markers(self, text):
        assert CapabilitySet.parse(text) == CapabilitySet.empty()

    def test_parse_comma_list(self):
        caps = CapabilitySet.parse("CapSetuid, CapChown ,CapFowner")
        assert caps == CapabilitySet.of("CapSetuid", "CapChown", "CapFowner")

    def test_parse_describe_roundtrip(self):
        caps = CapabilitySet.of("CapDacReadSearch", "CapNetBindService")
        assert CapabilitySet.parse(caps.describe()) == caps


class TestAlgebra:
    def test_union_intersection_difference(self):
        a = CapabilitySet.of("CapSetuid", "CapChown")
        b = CapabilitySet.of("CapChown", "CapFowner")
        assert (a | b) == CapabilitySet.of("CapSetuid", "CapChown", "CapFowner")
        assert (a & b) == CapabilitySet.of("CapChown")
        assert (a - b) == CapabilitySet.of("CapSetuid")

    def test_add_remove_are_pure(self):
        original = CapabilitySet.of("CapSetuid")
        extended = original.add("CapChown")
        assert "CapChown" not in original
        assert "CapChown" in extended
        shrunk = extended.remove("CapSetuid")
        assert "CapSetuid" in extended
        assert "CapSetuid" not in shrunk

    def test_remove_missing_is_noop(self):
        caps = CapabilitySet.of("CapSetuid")
        assert caps.remove("CapChown") == caps

    def test_contains_accepts_strings(self):
        assert "CapSetuid" in CapabilitySet.of("CapSetuid")
        assert "CAP_SETUID" in CapabilitySet.of("CapSetuid")

    def test_iteration_is_sorted(self):
        caps = CapabilitySet.of("CapSetuid", "CapChown")  # 7, 0
        assert list(caps) == [Capability.CAP_CHOWN, Capability.CAP_SETUID]

    def test_describe_empty(self):
        assert CapabilitySet.empty().describe() == "(empty)"

    def test_describe_sorted_camel(self):
        caps = CapabilitySet.of("CapSetuid", "CapChown")
        assert caps.describe() == "CapChown,CapSetuid"


class TestMaskEncoding:
    def test_known_mask(self):
        caps = CapabilitySet.of("CapChown", "CapSetuid")  # bits 0 and 7
        assert caps.to_mask() == (1 << 0) | (1 << 7)

    def test_from_mask_rejects_unknown_bits(self):
        with pytest.raises(ValueError):
            CapabilitySet.from_mask(1 << 60)

    def test_from_mask_rejects_negative(self):
        with pytest.raises(ValueError):
            CapabilitySet.from_mask(-1)

    def test_from_mask_error_names_only_the_unknown_bits(self):
        with pytest.raises(ValueError, match=r"^mask contains unknown capability bits: 0x4000000000$"):
            CapabilitySet.from_mask(1 << 38)
        with pytest.raises(ValueError, match=r"^mask contains unknown capability bits: 0x10000000000$"):
            CapabilitySet.from_mask((1 << 40) | 3)

    def test_single_bit_masks_roundtrip(self):
        for cap in Capability:
            decoded = CapabilitySet.from_mask(1 << int(cap))
            assert list(decoded) == [cap]
            assert decoded.to_mask() == 1 << int(cap)

    @given(st.integers(min_value=0, max_value=(1 << len(Capability)) - 1))
    def test_random_masks_roundtrip(self, mask):
        decoded = CapabilitySet.from_mask(mask)
        assert decoded.to_mask() == mask
        assert decoded == CapabilitySet(
            cap for cap in Capability if mask & (1 << int(cap))
        )

    @given(capsets)
    def test_mask_roundtrip(self, caps):
        assert CapabilitySet.from_mask(caps.to_mask()) == caps

    @given(capsets, capsets)
    def test_mask_of_union_is_or(self, a, b):
        assert (a | b).to_mask() == (a.to_mask() | b.to_mask())


class TestSetLaws:
    @given(capsets, capsets)
    def test_union_commutes(self, a, b):
        assert (a | b) == (b | a)

    @given(capsets, capsets, capsets)
    def test_union_associates(self, a, b, c):
        assert ((a | b) | c) == (a | (b | c))

    @given(capsets, capsets)
    def test_difference_disjoint_from_subtrahend(self, a, b):
        assert not ((a - b) & b)

    @given(capsets)
    def test_subset_reflexive(self, a):
        assert a.issubset(a)

    @given(capsets, capsets)
    def test_hash_consistent_with_eq(self, a, b):
        if a == b:
            assert hash(a) == hash(b)


class TestCapabilityState:
    def test_effective_must_be_subset_of_permitted(self):
        with pytest.raises(ValueError):
            CapabilityState(
                effective=CapabilitySet.of("CapSetuid"),
                permitted=CapabilitySet.empty(),
            )

    def test_with_permitted_starts_lowered(self):
        state = CapabilityState.with_permitted(CapabilitySet.of("CapSetuid"))
        assert not state.effective
        assert "CapSetuid" in state.permitted

    def test_raise_moves_into_effective(self):
        state = CapabilityState.with_permitted(CapabilitySet.of("CapSetuid"))
        raised = state.raise_caps(CapabilitySet.of("CapSetuid"))
        assert "CapSetuid" in raised.effective

    def test_raise_non_permitted_fails(self):
        state = CapabilityState.with_permitted(CapabilitySet.of("CapSetuid"))
        with pytest.raises(PermissionError):
            state.raise_caps(CapabilitySet.of("CapChown"))

    def test_lower_only_touches_effective(self):
        state = CapabilityState.with_permitted(
            CapabilitySet.of("CapSetuid")
        ).raise_caps(CapabilitySet.of("CapSetuid"))
        lowered = state.lower_caps(CapabilitySet.of("CapSetuid"))
        assert "CapSetuid" not in lowered.effective
        assert "CapSetuid" in lowered.permitted

    def test_remove_is_irrevocable(self):
        state = CapabilityState.with_permitted(CapabilitySet.of("CapSetuid"))
        removed = state.remove_caps(CapabilitySet.of("CapSetuid"))
        assert "CapSetuid" not in removed.permitted
        with pytest.raises(PermissionError):
            removed.raise_caps(CapabilitySet.of("CapSetuid"))

    def test_remove_clears_effective_too(self):
        state = CapabilityState.with_permitted(
            CapabilitySet.of("CapSetuid", "CapChown")
        ).raise_caps(CapabilitySet.of("CapSetuid"))
        removed = state.remove_caps(CapabilitySet.of("CapSetuid"))
        assert "CapSetuid" not in removed.effective
        assert "CapChown" in removed.permitted

    def test_for_root_has_everything(self):
        state = CapabilityState.for_root()
        assert state.effective == CapabilitySet.full()
        assert state.permitted == CapabilitySet.full()

    @given(capsets, capsets)
    def test_permitted_never_grows(self, permitted, other):
        """The kernel invariant: no operation can add to the permitted set."""
        state = CapabilityState.with_permitted(permitted)
        for operation in (state.lower_caps, state.remove_caps):
            assert operation(other).permitted.issubset(permitted)
        raisable = other & permitted
        assert state.raise_caps(raisable).permitted == permitted

    @given(capsets, capsets)
    def test_effective_always_subset_of_permitted(self, permitted, raised):
        state = CapabilityState.with_permitted(permitted)
        result = state.raise_caps(raised & permitted)
        assert result.effective.issubset(result.permitted)
