"""Plain-text rendering of game states and orientations.

The paper's figures (stable orientation examples, the token dropping game,
traversals and tails) are reproduced programmatically; these helpers turn
the corresponding data structures into terminal-friendly text, which the
examples and the CLI print.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional

from repro.core.assignment.problem import Assignment
from repro.core.orientation.problem import Orientation
from repro.core.token_dropping.game import TokenDroppingInstance
from repro.core.token_dropping.traversal import TokenDroppingSolution

NodeId = Hashable


def render_layered_game(
    instance: TokenDroppingInstance, occupied: Optional[Iterable[NodeId]] = None
) -> str:
    """Render a layered game level by level; occupied nodes are marked ``[*]``.

    ``occupied`` defaults to the instance's initial token placement; pass a
    solution's destinations to show the final configuration.
    """
    occupied_set = set(instance.tokens if occupied is None else occupied)
    lines: List[str] = []
    for level in range(instance.height, -1, -1):
        cells = []
        for node in instance.graph.nodes_at_level(level):
            marker = "*" if node in occupied_set else " "
            cells.append(f"[{marker}] {node}")
        lines.append(
            f"level {level:>2}: " + "   ".join(cells)
            if cells
            else f"level {level:>2}: (empty)"
        )
    return "\n".join(lines)


def render_traversals(
    solution: TokenDroppingSolution, include_tails: bool = False
) -> str:
    """One line per token: its traversal (and optionally its extended traversal)."""
    lines: List[str] = []
    for token in sorted(solution.traversals, key=repr):
        traversal = solution.traversals[token]
        path = " -> ".join(str(node) for node in traversal.path)
        line = f"token {token}: {path}  ({traversal.length} move(s))"
        if include_tails:
            extended = solution.extended_traversal(token)
            tail = extended[len(traversal.path):]
            if tail:
                line += "  tail: " + " -> ".join(str(node) for node in tail)
        lines.append(line)
    return "\n".join(lines) if lines else "(no tokens)"


def render_orientation(orientation: Orientation) -> str:
    """One line per edge plus a load summary; unhappy edges are flagged."""
    lines: List[str] = []
    for tail, head in orientation.oriented_edges():
        status = "ok" if orientation.is_happy(tail, head) else "UNHAPPY"
        lines.append(
            f"{tail} -> {head}   load({tail})={orientation.load(tail)} "
            f"load({head})={orientation.load(head)}   [{status}]"
        )
    for key in orientation.unoriented_edges():
        lines.append(f"{key[0]} -- {key[1]}   [unoriented]")
    loads = orientation.loads()
    lines.append(
        "loads: "
        + ", ".join(
            f"{node}={load}"
            for node, load in sorted(loads.items(), key=lambda kv: repr(kv[0]))
        )
    )
    return "\n".join(lines)


def render_assignment(assignment: Assignment, max_rows: int = 50) -> str:
    """Customer → server listing plus a load histogram."""
    lines: List[str] = []
    choices = assignment.choices()
    for index, customer in enumerate(sorted(choices, key=repr)):
        if index >= max_rows:
            lines.append(f"... ({len(choices) - max_rows} more customers)")
            break
        lines.append(f"{customer} -> {choices[customer]}")
    histogram: dict = {}
    for load in assignment.loads().values():
        histogram[load] = histogram.get(load, 0) + 1
    lines.append(
        "server load histogram: "
        + ", ".join(f"{load}:{count}" for load, count in sorted(histogram.items()))
    )
    return "\n".join(lines)
