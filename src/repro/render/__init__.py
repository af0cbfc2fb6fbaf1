"""Text and DOT rendering of games, orientations, and assignments."""

from repro.render.ascii_art import (
    render_assignment,
    render_layered_game,
    render_orientation,
    render_traversals,
)
from repro.render.dot import orientation_to_dot, token_dropping_to_dot

__all__ = [
    "orientation_to_dot",
    "render_assignment",
    "render_layered_game",
    "render_orientation",
    "render_traversals",
    "token_dropping_to_dot",
]
