"""Long-running census targets, disabled by default.

Set ``LOOPTRANS_SLOW=1`` to run the eight-vertex mixed row and the
eleven-vertex homogeneous rows (minutes each), ``LOOPTRANS_SLOW=full`` to
add the nine- and twelve-vertex rows (an hour or more).
"""

import os

import pytest

from looptrans.enumeration import census

SLOW = os.environ.get("LOOPTRANS_SLOW", "")

pytestmark = pytest.mark.skipif(
    not SLOW, reason="set LOOPTRANS_SLOW=1 to run long census targets"
)


def test_mixed_census_eight_vertices():
    row = census(8, 3, "mixed")
    assert row.class_count == 1_076_984
    assert row.treelike_count == 439_968
    assert row.pair_count == 13_343
    assert row.treelike_pair_count == 2_112
    assert row.class_pair_count == 2_343
    assert row.treelike_class_pair_count == 375


def test_homogeneous_census_eleven_vertices():
    d = census(11, 3, "dirichlet")
    assert (d.class_count, d.treelike_count) == (681_467, 13_566)
    assert (d.pair_count, d.class_pair_count) == (34, 9)
    n = census(11, 3, "neumann")
    assert (n.pair_count, n.class_pair_count) == (70, 19)
    assert d.treelike_pair_count == n.treelike_pair_count == 0


@pytest.mark.skipif(SLOW != "full", reason="set LOOPTRANS_SLOW=full")
def test_mixed_census_nine_vertices():
    row = census(9, 3, "mixed")
    assert row.class_count == 7_625_040
    assert row.treelike_count == 2_715_648
    assert row.pair_count == 0


@pytest.mark.skipif(SLOW != "full", reason="set LOOPTRANS_SLOW=full")
def test_homogeneous_census_twelve_vertices():
    d = census(12, 3, "dirichlet")
    assert (d.class_count, d.treelike_count) == (3_535_172, 44_772)
    assert (d.pair_count, d.class_pair_count) == (2_362, 440)
    n = census(12, 3, "neumann")
    assert (n.pair_count, n.class_pair_count) == (42, 10)
