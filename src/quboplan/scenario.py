"""Scenario files: a small sectioned text format describing one benchmark.

Sections are `[map]` (one row per line, '.' free and '#' obstacle),
`[robots]` (one `start_i start_j goal_i goal_j [release]` line per robot),
and optional `[weights]`, `[window]`, `[solver]`, `[bench]` key/value
sections. Unknown sections or keys are rejected with the offending line
number.
"""

from dataclasses import dataclass, field, fields

from .grid import GridMap
from .penalties import PenaltyWeights
from .planner import RobotSpec, WindowConfig, validate_robots
from .solvers import SolverConfig


class ScenarioError(ValueError):
    """Input file problem, reported with its line number."""


@dataclass
class ScenarioSpec:
    """Parsed and validated planning scenario."""

    grid: GridMap
    robots: list[RobotSpec]
    weights: PenaltyWeights = field(default_factory=PenaltyWeights)
    window_cfg: WindowConfig = field(default_factory=WindowConfig)
    solver_cfg: SolverConfig = field(default_factory=SolverConfig)
    repeats: int = 1
    name: str = "scenario"

    @property
    def seed(self) -> int:
        return self.solver_cfg.seed


def parse_map_text(rows: list[str], first_line: int = 1) -> GridMap:
    """Grid from '.'/'#' rows; all rows must have equal length."""
    if not rows:
        raise ScenarioError(f"line {first_line}: map section is empty")
    width = len(rows[0])
    obstacles = set()
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ScenarioError(
                f"line {first_line + i}: inconsistent row length "
                f"({len(row)} != {width})"
            )
        for j, ch in enumerate(row):
            if ch == "#":
                obstacles.add((i, j))
            elif ch != ".":
                raise ScenarioError(
                    f"line {first_line + i}: column {j + 1}: "
                    f"unexpected map character {ch!r}"
                )
    return GridMap(len(rows), width, frozenset(obstacles))


# The keys of each key/value section and the type each value parses as.
_KEY_TYPES = {
    "weights": {f.name: f.type for f in fields(PenaltyWeights)},
    "window": {f.name: f.type for f in fields(WindowConfig)},
    "solver": {"reads": int, "sweeps": int, "seed": int},
    "bench": {"repeats": int},
}
_TYPE_NAMES = {int: "an integer", float: "a number"}
_SECTIONS = ("map", "robots", "weights", "window", "solver", "bench")


def _parse_kv(line: str, lineno: int) -> tuple[str, str]:
    if "=" not in line:
        raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
    key, _, value = line.partition("=")
    return key.strip(), value.strip()


def parse_scenario(text: str, name: str = "scenario") -> ScenarioSpec:
    """Parse and validate one scenario file."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
            if current not in _SECTIONS:
                raise ScenarioError(f"line {lineno}: unknown section [{current}]")
            if current in sections:
                raise ScenarioError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = []
            continue
        if current != "map" and stripped.startswith("#"):
            continue  # comment; '#' would be an obstacle inside [map]
        if current is None:
            raise ScenarioError(f"line {lineno}: content before any section")
        # A map row keeps its leading whitespace, so the map check rejects it.
        sections[current].append((lineno, line if current == "map" else stripped))

    if not sections.get("map"):
        raise ScenarioError("missing or empty [map] section")
    if not sections.get("robots"):
        raise ScenarioError("missing or empty [robots] section")

    map_lines = sections["map"]
    grid = parse_map_text([row for _, row in map_lines], map_lines[0][0])

    robots: list[RobotSpec] = []
    for lineno, line in sections["robots"]:
        parts = line.split()
        if len(parts) not in (4, 5):
            raise ScenarioError(
                f"line {lineno}: robot line needs 'start_i start_j goal_i goal_j "
                f"[release]', got {line!r}"
            )
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise ScenarioError(f"line {lineno}: robot fields must be integers") from None
        release = values[4] if len(values) == 5 else 0
        start, goal = (values[0], values[1]), (values[2], values[3])
        for c, kind in ((start, "start"), (goal, "goal")):
            if not grid.in_bounds(c):
                raise ScenarioError(f"line {lineno}: robot {kind} {c} outside the map")
            if not grid.is_free(c):
                raise ScenarioError(f"line {lineno}: robot {kind} {c} is an obstacle")
        if release < 0:
            raise ScenarioError(f"line {lineno}: release must be >= 0")
        for other in robots:
            if (other.start, other.goal, other.release) == (start, goal, release):
                raise ScenarioError(f"line {lineno}: duplicate robot definition")
        robots.append(RobotSpec(len(robots), start, goal, release))

    def section_dict(section: str) -> dict:
        types = _KEY_TYPES[section]
        out = {}
        for lineno, line in sections.get(section, []):
            key, value = _parse_kv(line, lineno)
            if key not in types:
                raise ScenarioError(f"line {lineno}: unknown [{section}] key {key!r}")
            if key in out:
                raise ScenarioError(f"line {lineno}: duplicate [{section}] key {key!r}")
            try:
                out[key] = types[key](value)
            except ValueError:
                raise ScenarioError(f"line {lineno}: {key} must be "
                                    f"{_TYPE_NAMES[types[key]]}, got {value!r}") from None
            if key == "repeats" and out[key] < 1:
                raise ScenarioError(f"line {lineno}: repeats must be >= 1")
        return out

    try:
        weights = PenaltyWeights(**section_dict("weights"))
        window_cfg = WindowConfig(**section_dict("window"))

        sd = section_dict("solver")
        if "reads" in sd:
            sd["num_reads"] = sd.pop("reads")
        solver_cfg = SolverConfig(**sd)
        repeats = section_dict("bench").get("repeats", 1)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    try:
        validate_robots(grid, robots)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return ScenarioSpec(grid, robots, weights, window_cfg, solver_cfg, repeats, name)


def load_scenario(path: str) -> ScenarioSpec:
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".scn"):
        name = name[:-4]
    return parse_scenario(text, name=name)
