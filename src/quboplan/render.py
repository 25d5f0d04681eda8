"""Static SVG rendering of maps and solved plans.

Output is deterministic: identical inputs produce byte-identical files. All
coordinates are integers, obstacles are drawn in a fixed order, and robot
colors come from a fixed palette.
"""

from .grid import GridMap

CELL = 32
MARGIN = 16

# Distinguishable stroke colors, cycled by robot position.
PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#00ced1")


def _center(c) -> tuple[int, int]:
    i, j = c
    return (MARGIN + j * CELL + CELL // 2, MARGIN + i * CELL + CELL // 2)


def render_svg(grid: GridMap, plans=(), out_path: str | None = None) -> str:
    """Draw the grid, obstacles, and one polyline per plan.

    `plans` is any iterable of `Plan`s. A circle marks each plan's first
    cell and a square its last, the goal only for a plan that reached it;
    each step carries its global time as a small label.
    """
    width = 2 * MARGIN + grid.cols * CELL
    height = 2 * MARGIN + grid.rows * CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for c in sorted(grid.obstacles):
        x = MARGIN + c[1] * CELL
        y = MARGIN + c[0] * CELL
        parts.append(f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" fill="#333333"/>')
    for i in range(grid.rows + 1):
        y = MARGIN + i * CELL
        parts.append(
            f'<line x1="{MARGIN}" y1="{y}" x2="{width - MARGIN}" y2="{y}" '
            f'stroke="#bbbbbb" stroke-width="1"/>'
        )
    for j in range(grid.cols + 1):
        x = MARGIN + j * CELL
        parts.append(
            f'<line x1="{x}" y1="{MARGIN}" x2="{x}" y2="{height - MARGIN}" '
            f'stroke="#bbbbbb" stroke-width="1"/>'
        )

    for index, plan in enumerate(plans):
        steps = plan.steps
        if not steps:
            continue
        color = PALETTE[index % len(PALETTE)]
        points = " ".join(f"{x},{y}" for x, y in (_center(c) for _, c in steps))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="3" stroke-opacity="0.75"/>'
        )
        sx, sy = _center(steps[0][1])
        gx, gy = _center(steps[-1][1])
        parts.append(f'<circle cx="{sx}" cy="{sy}" r="6" fill="{color}"/>')
        half = 6
        parts.append(
            f'<rect x="{gx - half}" y="{gy - half}" width="{2 * half}" '
            f'height="{2 * half}" fill="{color}"/>'
        )
        for t, c in steps:
            x, y = _center(c)
            parts.append(
                f'<text x="{x + 7}" y="{y - 5}" font-size="8" '
                f'font-family="monospace" fill="{color}">{t}</text>'
            )
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(svg)
    return svg
