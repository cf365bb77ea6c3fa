"""Tests for the minimap."""

import pytest

from repro.dot import plan_to_graph
from repro.layout import layout_graph
from repro.mal.parser import parse_instruction_text
from repro.viz import View, build_virtual_space
from repro.viz.color import GREEN, RED
from repro.viz.minimap import Minimap


class TestMinimap:
    @pytest.fixture
    def space(self):
        program = parse_instruction_text("""
            X_1 := sql.mvc();
            X_2 := sql.bind(X_1,"sys","t","x",0);
            X_3 := algebra.select(X_2,1);
            sql.exportResult(X_3);
        """)
        return build_virtual_space(layout_graph(plan_to_graph(program)))

    def test_every_node_dotted(self, space):
        text = Minimap(space).render()
        assert text.count(".") == 4

    def test_colored_states_visible(self, space):
        space.shape_of("n2").fill = RED
        space.shape_of("n1").fill = GREEN
        text = Minimap(space).render()
        assert "r" in text and "g" in text

    def test_viewport_rectangle_drawn(self, space):
        view = View(space, width=400, height=300)
        view.fit_all()
        view.camera.zoom_in(3)
        text = Minimap(space, width=40, height=14).render(view)
        assert "+" in text  # rectangle corners

    def test_viewport_shrinks_when_zooming(self, space):
        view = View(space, width=400, height=300)
        view.fit_all()
        minimap = Minimap(space, width=60, height=20)
        c0, r0, c1, r1 = minimap.viewport_rectangle(view)
        wide_area = (c1 - c0) * (r1 - r0)
        view.camera.zoom_in(4)
        c0, r0, c1, r1 = minimap.viewport_rectangle(view)
        assert (c1 - c0) * (r1 - r0) < wide_area
