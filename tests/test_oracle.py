import pytest

from palletpack.model import Dims, PackingState, Pallet, SolverParams, TransportUnit
from palletpack.search import solve

from conftest import make_state
from reference.oracle import dp_knapsack, exhaustive_solve, voxel_unused_volume

P0 = SolverParams(vertical_support_min=0.0, max_branches=10**6, time_limit_ms=10**9)


def test_voxel_examples(pallet_4x3x10):
    assert voxel_unused_volume(PackingState.empty(pallet_4x3x10)) == 120
    assert voxel_unused_volume(make_state(pallet_4x3x10, [(0, 0, 0, 2, 2, 1)])) == 116
    stacked = make_state(pallet_4x3x10, [(0, 0, 0, 2, 2, 1), (0, 0, 1, 2, 2, 2)])
    assert voxel_unused_volume(stacked) == 108


def test_voxel_rejects_oversized_pallet():
    huge = PackingState.empty(Pallet(10**4, 10**4, 10**4))
    with pytest.raises(ValueError):
        voxel_unused_volume(huge)


def test_dp_examples():
    assert dp_knapsack([6, 5, 4], 10) == 10
    assert dp_knapsack([7, 7], 10) == 7
    assert dp_knapsack([], 10) == 0


def test_dp_scaling_by_common_divisor():
    # raw sums would overflow the table; the shared factor brings it back
    vols = [600_000, 500_000, 400_000]
    assert dp_knapsack(vols, 1_000_000) == 1_000_000
    assert dp_knapsack([7 * 10**5, 7 * 10**5], 10**6) == 7 * 10**5


def test_dp_rejects_oversized_table():
    with pytest.raises(ValueError):
        dp_knapsack([999_983, 999_979, 2], 1_999_962)  # coprime, no scaling


def test_exhaustive_matches_solve_on_single_unit(pallet_4x3x10):
    units = [TransportUnit("u0", Dims(2, 2, 1), 0)]
    assert exhaustive_solve(units, pallet_4x3x10, P0).placements == solve(
        units, pallet_4x3x10, P0
    ).placements


def test_exhaustive_explores_more_nodes_than_pruned_solve(pallet_4x3x10):
    units = [
        TransportUnit("u0", Dims(4, 3, 9), 0),
        TransportUnit("u1", Dims(1, 1, 1), 1),
        TransportUnit("u2", Dims(1, 1, 1), 2),
    ]
    sol = solve(units, pallet_4x3x10, P0)
    oracle = exhaustive_solve(units, pallet_4x3x10, P0)
    assert sol.placed_volume == oracle.placed_volume
    assert sol.stats.nodes_pruned_by_bound >= 1
    assert oracle.stats.nodes_pruned_by_bound == 0
    assert oracle.stats.nodes_expanded > sol.stats.nodes_expanded


def test_exhaustive_ignores_the_node_budget(pallet_4x3x10):
    units = [TransportUnit(f"u{i}", Dims(1, 1, 1), i) for i in range(4)]
    budgeted = SolverParams(vertical_support_min=0.0, max_branches=10**6, max_nodes=1)
    assert solve(units, pallet_4x3x10, budgeted).stats.nodes_expanded == 1
    got, full = (exhaustive_solve(units, pallet_4x3x10, p) for p in (budgeted, P0))
    assert got.placements == full.placements
    assert got.stats.nodes_expanded == full.stats.nodes_expanded > 1


def test_exhaustive_enforces_unit_limit(pallet_4x3x10):
    units = [TransportUnit(f"u{i}", Dims(1, 1, 1), i) for i in range(7)]
    with pytest.raises(ValueError):
        exhaustive_solve(units, pallet_4x3x10, P0)
