"""Plan checker that shares no code with the planner's own validation.

It reads only the map's size and obstacle set, the robots' endpoints and
release times, and the timestamped cells of each plan.
"""


def check_plans(grid, robots, steps_by_robot) -> list[str]:
    """Every rule a set of plans breaks, as readable strings; [] when valid.

    `steps_by_robot` maps a robot id to its [(time, (row, col)), ...] plan.
    Waiting in place is allowed only when more than one robot is planned.
    Robots are absent before their first step and stay parked on their last
    cell after it, so a parked robot blocks its goal for everyone else.
    """
    errors = []
    allow_wait = len(robots) > 1
    for robot in robots:
        steps = steps_by_robot.get(robot.id)
        if not steps:
            errors.append(f"robot {robot.id}: no plan")
            continue
        errors.extend(_check_one(grid, robot, steps, allow_wait))
    if not errors:
        errors.extend(_vertex_clashes([steps_by_robot[r.id] for r in robots],
                                      [r.id for r in robots]))
    return errors


def _check_one(grid, robot, steps, allow_wait: bool) -> list[str]:
    name = f"robot {robot.id}"
    errors = []
    if steps[0][0] != robot.release:
        errors.append(f"{name}: starts at t={steps[0][0]}, released at t={robot.release}")
    if tuple(steps[0][1]) != tuple(robot.start):
        errors.append(f"{name}: starts on {steps[0][1]}, not on {robot.start}")
    if tuple(steps[-1][1]) != tuple(robot.goal):
        errors.append(f"{name}: ends on {steps[-1][1]}, not on {robot.goal}")
    for k, (t, (i, j)) in enumerate(steps):
        if not (0 <= i < grid.rows and 0 <= j < grid.cols):
            errors.append(f"{name}: t={t} leaves the map at {(i, j)}")
        elif (i, j) in grid.obstacles:
            errors.append(f"{name}: t={t} enters obstacle {(i, j)}")
        if k == 0:
            continue
        t0, (i0, j0) = steps[k - 1]
        if t != t0 + 1:
            errors.append(f"{name}: time jumps from {t0} to {t}")
        hop = abs(i - i0) + abs(j - j0)
        if hop > 1:
            errors.append(f"{name}: t={t} jumps from {(i0, j0)} to {(i, j)}")
        elif hop == 0 and not allow_wait:
            errors.append(f"{name}: t={t} waits on {(i, j)} in a single-robot plan")
    return errors


def _vertex_clashes(plans, ids) -> list[str]:
    first = min(p[0][0] for p in plans)
    last = max(p[-1][0] for p in plans)
    errors = []
    for t in range(first, last + 1):
        holders = {}
        for rid, plan in zip(ids, plans):
            if t < plan[0][0]:
                continue
            cell = tuple(plan[min(t - plan[0][0], len(plan) - 1)][1])
            if cell in holders:
                errors.append(f"robots {holders[cell]} and {rid} share {cell} at t={t}")
            else:
                holders[cell] = rid
    return errors
