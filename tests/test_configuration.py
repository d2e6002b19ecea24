"""Unit tests for SAVG k-Configurations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.configuration import UNASSIGNED, SAVGConfiguration, repeated_rows


class TestConstruction:
    def test_empty_is_unassigned(self):
        config = SAVGConfiguration.empty(3, 2, 5)
        assert not config.is_complete()
        assert (config.assignment == UNASSIGNED).all()
        assert config.num_users == 3 and config.num_slots == 2

    def test_for_instance_shapes(self, tiny_instance):
        config = SAVGConfiguration.for_instance(tiny_instance)
        assert config.assignment.shape == (3, 2)
        assert config.num_items == 4

    def test_from_mapping(self):
        config = SAVGConfiguration.from_mapping({(0, 0): 1, (0, 1): 2, (1, 0): 0, (1, 1): 3}, 2, 2, 4)
        assert config.assignment[0, 0] == 1
        assert config.is_complete()

    def test_rejects_item_out_of_range(self):
        with pytest.raises(ValueError):
            SAVGConfiguration(assignment=np.array([[5]]), num_items=4)

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            SAVGConfiguration(assignment=np.zeros(3, dtype=int), num_items=4)

    def test_copy_is_independent(self):
        config = SAVGConfiguration.empty(2, 2, 3)
        clone = config.copy()
        clone.assign(0, 0, 1)
        assert config.assignment[0, 0] == UNASSIGNED


class TestAssignment:
    def test_assign_and_query(self):
        config = SAVGConfiguration.empty(2, 2, 4)
        config.assign(0, 0, 3)
        assert config.is_assigned(0, 0)
        assert config.user_has_item(0, 3)
        assert not config.user_has_item(0, 1)

    def test_assign_rejects_double_fill(self):
        config = SAVGConfiguration.empty(2, 2, 4)
        config.assign(0, 0, 3)
        with pytest.raises(ValueError, match="already assigned"):
            config.assign(0, 0, 1)

    def test_assign_rejects_duplicate_item(self):
        config = SAVGConfiguration.empty(2, 2, 4)
        config.assign(0, 0, 3)
        with pytest.raises(ValueError, match="no-duplication"):
            config.assign(0, 1, 3)

    def test_assign_rejects_bad_item(self):
        config = SAVGConfiguration.empty(2, 2, 4)
        with pytest.raises(ValueError):
            config.assign(0, 0, 7)

    def test_unassigned_units(self):
        config = SAVGConfiguration.empty(2, 2, 4)
        config.assign(0, 0, 1)
        assert (0, 0) not in config.unassigned_units()
        assert len(config.unassigned_units()) == 3


class TestValidity:
    def test_complete_and_valid(self):
        config = SAVGConfiguration(assignment=np.array([[0, 1], [2, 3]]), num_items=4)
        assert config.is_complete()
        assert config.satisfies_no_duplication()
        assert config.is_valid()
        config.validate()  # does not raise

    def test_duplicate_detected(self):
        config = SAVGConfiguration(assignment=np.array([[0, 0], [2, 3]]), num_items=4)
        assert not config.satisfies_no_duplication()
        with pytest.raises(ValueError, match="no-duplication"):
            config.validate()

    def test_repeated_rows_skip_unassigned_cells(self):
        rows = np.array(
            [
                [UNASSIGNED, 2, UNASSIGNED],  # two unassigned cells: no repeat
                [3, UNASSIGNED, 3],  # a repeat beside an unassigned cell
                [1, 1, UNASSIGNED],
                [0, 1, 2],
                [UNASSIGNED, UNASSIGNED, UNASSIGNED],
            ]
        )
        np.testing.assert_array_equal(repeated_rows(rows), [False, True, True, False, False])
        assert repeated_rows(np.zeros((0, 3), dtype=np.int64)).shape == (0,)
        assert not repeated_rows(np.array([[4], [UNASSIGNED]])).any()

    def test_partial_rows_and_no_duplication(self):
        pair = SAVGConfiguration(assignment=[[UNASSIGNED, 2, UNASSIGNED], [0, 1, 2]], num_items=4)
        assert pair.satisfies_no_duplication()
        repeat = SAVGConfiguration(assignment=[[3, UNASSIGNED, 3], [0, 1, 2]], num_items=4)
        assert not repeat.satisfies_no_duplication()

    def test_incomplete_detected(self):
        config = SAVGConfiguration(assignment=np.array([[0, UNASSIGNED], [2, 3]]), num_items=4)
        assert not config.is_complete()
        with pytest.raises(ValueError, match="incomplete"):
            config.validate()

    def test_validate_against_instance_shape(self, tiny_instance):
        config = SAVGConfiguration(assignment=np.array([[0, 1], [2, 3]]), num_items=4)
        with pytest.raises(ValueError, match="users"):
            config.validate(tiny_instance)

    def test_is_valid_with_instance(self, tiny_instance):
        config = SAVGConfiguration(
            assignment=np.array([[0, 1], [1, 2], [2, 3]]), num_items=4
        )
        assert config.is_valid(tiny_instance)


class TestStructure:
    def make(self):
        # users 0,1 share item 0 at slot 0; user 2 alone on item 2.
        return SAVGConfiguration(
            assignment=np.array([[0, 1], [0, 3], [2, 1]]), num_items=4
        )

    def test_items_for_user(self):
        config = self.make()
        assert config.items_for_user(0) == (0, 1)

    def test_subgroups_at_slot(self):
        config = self.make()
        groups = config.subgroups_at_slot(0)
        assert groups == {0: [0, 1], 2: [2]}
        groups1 = config.subgroups_at_slot(1)
        assert groups1 == {1: [0, 2], 3: [1]}

    def test_iter_subgroups_counts(self):
        config = self.make()
        assert len(list(config.iter_subgroups())) == 4

    def test_co_displayed(self):
        config = self.make()
        assert config.co_displayed(0, 1, 0)
        assert not config.co_displayed(0, 2, 0)
        assert config.co_displayed(0, 2, 1)

    def test_indirect_co_display(self):
        config = SAVGConfiguration(
            assignment=np.array([[0, 1], [1, 0]]), num_items=3
        )
        assert config.indirectly_co_displayed(0, 1, 0)
        assert config.indirectly_co_displayed(0, 1, 1)
        assert not config.co_displayed(0, 1, 0)

    def test_subgroup_sizes_and_max(self):
        config = self.make()
        assert sorted(config.subgroup_sizes()) == [1, 1, 2, 2]
        assert config.max_subgroup_size() == 2

    def test_to_table_contains_labels(self, paper_instance):
        config = SAVGConfiguration(
            assignment=np.tile(np.array([0, 1, 2]), (4, 1)), num_items=5
        )
        table = config.to_table(paper_instance)
        assert "Alice" in table and "c1" in table and "slot 1" in table

    def test_equality(self):
        a = self.make()
        b = self.make()
        assert a == b
        b.assignment[0, 0] = 3
        assert a != b
