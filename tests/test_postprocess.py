import random
import time

import pytest

import oracles
from quboplan.grid import GridMap
from quboplan.postprocess import (
    detect_invalid_move,
    find_vertex_conflicts,
    fix_one_hot_continuity,
    occupied_at,
    resolve_clash_wait,
)

FAR_GOAL = (9, 9)  # a goal that none of the continuity paths below reaches


def test_continuity_keeps_unique_adjacent_candidate():
    occupancy = [{(1, 0)}, {(1, 1), (3, 3)}, {(1, 2)}]
    out = fix_one_hot_continuity(occupancy, (1, 0), FAR_GOAL)
    assert out.reason is None
    assert out.path == [(1, 0), (1, 1), (1, 2)]
    assert out.dropped == 1


def test_continuity_stops_at_a_jump_between_single_cells():
    occupancy = [{(0, 0)}, {(3, 3)}]  # already one-hot, but not a move
    out = fix_one_hot_continuity(occupancy, (0, 0), FAR_GOAL)
    assert out.reason == "adjacency"
    assert out.path == [(0, 0)]


def test_continuity_ambiguous_tie_fails():
    occupancy = [{(0, 0)}, {(0, 1), (1, 0)}]  # both adjacent to the seed
    out = fix_one_hot_continuity(occupancy, (0, 0), FAR_GOAL)
    assert out.reason == "ambiguous"
    assert len(out.path) == 1


def test_continuity_no_candidate_fails():
    occupancy = [{(0, 0)}, {(2, 2), (2, 0)}]
    out = fix_one_hot_continuity(occupancy, (0, 0), FAR_GOAL)
    assert out.reason == "adjacency"
    assert len(out.path) == 1


def test_continuity_empty_step_reports_prefix():
    occupancy = [{(0, 0)}, {(0, 1)}, set(), {(0, 2)}]
    out = fix_one_hot_continuity(occupancy, (0, 0), FAR_GOAL)
    assert out.reason == "empty_step"
    assert out.path == [(0, 0), (0, 1)]


def test_continuity_start_mismatch():
    out = fix_one_hot_continuity([{(1, 1)}], (0, 0), FAR_GOAL)
    assert out.reason == "start_mismatch"
    assert out.path == []


def test_continuity_wait_counts_as_adjacent_in_wait_mode():
    occupancy = [{(0, 0)}, {(0, 0), (2, 2)}]
    out = fix_one_hot_continuity(occupancy, (0, 0), FAR_GOAL, allow_wait=True)
    assert out.reason is None
    assert out.path == [(0, 0), (0, 0)]


def test_continuity_wait_is_a_broken_move_without_wait_mode():
    out = fix_one_hot_continuity([{(0, 0)}, {(0, 0)}], (0, 0), FAR_GOAL)
    assert out.reason == "adjacency"
    assert out.path == [(0, 0)]


def test_continuity_ends_at_the_first_arrival_on_the_goal():
    # After the goal come the goal padded onto the later layers, a jump and
    # an empty step; the repair never looks at them.
    occupancy = [{(0, 0)}, {(0, 1)}, {(0, 2)}, {(0, 2)}, {(2, 2)}, set()]
    out = fix_one_hot_continuity(occupancy, (0, 0), (0, 2))
    assert out.reason is None
    assert out.path == [(0, 0), (0, 1), (0, 2)]


def test_continuity_idempotent_on_valid_paths():
    path = [(0, 0), (0, 1), (1, 1), (2, 1)]
    out = fix_one_hot_continuity([{c} for c in path], (0, 0), FAR_GOAL)
    assert out.reason is None and out.path == path and out.dropped == 0
    out = fix_one_hot_continuity([{c} for c in path], (0, 0), path[-1])
    assert out.reason is None and out.path == path and out.dropped == 0


def test_detect_invalid_move():
    g = GridMap(3, 3, frozenset({(1, 1)}))
    assert detect_invalid_move([(0, 0), (0, 1), (0, 2)], g) is None
    assert detect_invalid_move([(0, 0), (2, 2)], g) == (1, "adjacency")
    assert detect_invalid_move([(0, 0), (1, 1)], g) == (1, "obstacle")
    assert detect_invalid_move([(0, 0), (0, 0)], g) == (1, "adjacency")
    assert detect_invalid_move([(0, 0), (0, 0)], g, allow_wait=True) is None


def test_occupied_at_parking_semantics():
    steps = [(2, (0, 0)), (3, (0, 1)), (4, (0, 2))]
    assert occupied_at(steps, 1) is None
    assert occupied_at(steps, 3) == (0, 1)
    assert occupied_at(steps, 9) == (0, 2)  # parked forever


def test_find_vertex_conflicts_orders_and_parks():
    a = [(0, (0, 0)), (1, (0, 1))]
    b = [(0, (1, 1)), (1, (0, 1))]
    conflicts = find_vertex_conflicts([a, b])
    assert conflicts[0] == (1, (0, 1), 0, 1)
    # b stays parked on (0,1), so the conflict persists at later times too
    assert all(c[1] == (0, 1) for c in conflicts)


def test_find_vertex_conflicts_matches_the_tick_by_tick_scan():
    # Small maps and spread start times give gaps in which every robot is
    # absent or parked, and clashes that persist across those gaps.
    rng = random.Random(7)
    clashing = 0
    for _ in range(400):
        lists = []
        for _ in range(rng.randint(1, 4)):
            first = rng.choice([0, rng.randint(0, 12), rng.randint(20, 40)])
            lists.append([(first + k, (rng.randrange(2), rng.randrange(3)))
                          for k in range(rng.randint(0, 6))])
        expected = oracles.vertex_conflicts(lists)
        assert find_vertex_conflicts(lists) == expected
        clashing += bool(expected)
    assert clashing > 100


def test_find_vertex_conflicts_skips_the_ticks_between_far_apart_steps():
    a = [(0, (0, 0)), (1, (0, 1))]
    b = [(10**7, (1, 1)), (10**7 + 1, (1, 2))]
    start = time.perf_counter()
    assert find_vertex_conflicts([a, b]) == []
    assert time.perf_counter() - start < 0.5


def test_resolve_clash_single_wait():
    g = GridMap(3, 3)
    p0 = [(0, (0, 0)), (1, (0, 1)), (2, (0, 2)), (3, (1, 2))]
    p1 = [(0, (1, 1)), (1, (0, 1)), (2, (0, 2)), (3, (0, 1))]
    assert find_vertex_conflicts([p0, p1])  # both hold (0,1) at t=1
    lists, events, unresolved = resolve_clash_wait([p0, p1], g)
    assert unresolved == []
    assert find_vertex_conflicts(lists) == []
    assert len(events) >= 1
    # the lower-priority robot absorbed the delay; the mover is untouched
    assert lists[0] == p0
    assert len(lists[1]) > len(p1)


def test_resolve_clash_no_conflict_is_identity():
    g = GridMap(2, 2)
    a = [(0, (0, 0)), (1, (0, 1))]
    b = [(0, (1, 1)), (1, (1, 0))]
    lists, events, unresolved = resolve_clash_wait([a, b], g)
    assert lists == [a, b]
    assert events == [] and unresolved == []


def test_clean_corridor_swap_has_no_vertex_conflicts():
    # robots exchanging cells between steps is an edge conflict, which the
    # vertex-only collision model deliberately does not see
    a = [(0, (0, 0)), (1, (0, 1)), (2, (0, 2)), (3, (0, 3))]
    b = [(0, (0, 3)), (1, (0, 2)), (2, (0, 1)), (3, (0, 0))]
    assert find_vertex_conflicts([a, b]) == []


def test_resolve_clash_parked_blocker_reported_unresolved():
    g = GridMap(1, 4)
    a = [(0, (0, 0)), (1, (0, 1))]  # parks mid-corridor forever
    b = [(0, (0, 3)), (1, (0, 2)), (2, (0, 1)), (3, (0, 0))]
    lists, events, unresolved = resolve_clash_wait([a, b], g)
    assert unresolved, "waiting can never clear a parked robot off the corridor"


def test_resolve_clash_stops_at_once_against_a_parked_robot():
    # Robot 1 crosses robot 0's final cell after robot 0 has parked there:
    # no wait of robot 1 can clear that, so none is spent.
    g = GridMap(3, 3)
    parked = [(0, (0, 0)), (1, (0, 1))]
    mover = [(0, (2, 1)), (1, (1, 1)), (2, (0, 1)), (3, (0, 2))]
    lists, events, unresolved = resolve_clash_wait([parked, mover], g)
    assert events == []
    assert unresolved == [(2, (0, 1), 0, 1)]
    assert lists == [parked, mover]


def test_resolve_clash_stops_at_once_when_the_waiting_robot_holds_the_cell():
    # Robot 0 steps onto (0, 1), where robot 1 already stands: a wait keeps
    # robot 1 there, so no wait can clear the clash and none is spent.
    g = GridMap(1, 3)
    mover = [(0, (0, 0)), (1, (0, 1)), (2, (0, 0))]
    holder = [(0, (0, 1)), (1, (0, 1)), (2, (0, 2))]
    lists, events, unresolved = resolve_clash_wait([mover, holder], g)
    assert events == []
    assert unresolved == [(1, (0, 1), 0, 1)]
    assert lists == [mover, holder]


def test_resolve_clash_never_changes_cell_sequences():
    g = GridMap(3, 3)
    p0 = [(0, (0, 0)), (1, (1, 0)), (2, (1, 1)), (3, (1, 2))]
    p1 = [(0, (2, 1)), (1, (1, 1)), (2, (0, 1))]
    lists, _, _ = resolve_clash_wait([p0, p1], g)
    for before, after in zip((p0, p1), lists):
        deduped = [c for k, c in enumerate([c for _, c in after])
                   if k == 0 or c != [c for _, c in after][k - 1]]
        original = [c for k, c in enumerate([c for _, c in before])
                    if k == 0 or c != [c for _, c in before][k - 1]]
        assert deduped == original
