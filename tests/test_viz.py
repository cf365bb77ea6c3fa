"""Tests for the visualization toolkit (glyphs, camera, lens...)."""

import pytest

from repro.dot import plan_to_graph
from repro.errors import VizError
from repro.layout import layout_graph
from repro.mal.parser import parse_instruction_text
from repro.viz import (
    Animator,
    Camera,
    Color,
    FisheyeLens,
    GREEN,
    RED,
    RectangleGlyph,
    View,
    VirtualSpace,
    WHITE,
    build_virtual_space,
)
from repro.viz.color import gradient_for

PLAN_TEXT = """
    X_1 := sql.mvc();
    X_2 := sql.bind(X_1,"sys","t","x",0);
    X_3 := algebra.select(X_2,1);
    sql.exportResult(X_3);
"""


@pytest.fixture
def space():
    layout = layout_graph(plan_to_graph(parse_instruction_text(PLAN_TEXT)))
    return build_virtual_space(layout)


class TestColor:
    def test_hex_roundtrip(self):
        assert Color.from_hex("#dc2828").to_hex() == "#dc2828"

    def test_bad_hex(self):
        with pytest.raises(VizError):
            Color.from_hex("#zzz")

    def test_channel_range_enforced(self):
        with pytest.raises(VizError):
            Color(300, 0, 0)

    def test_lerp_endpoints(self):
        assert WHITE.lerp(RED, 0.0) == WHITE
        assert WHITE.lerp(RED, 1.0) == RED

    def test_lerp_clamped(self):
        assert WHITE.lerp(RED, 5.0) == RED

    def test_gradient_for_range(self):
        cold = gradient_for(0, 0, 100)
        hot = gradient_for(100, 0, 100)
        assert cold == GREEN and hot == RED
        middle = gradient_for(50, 0, 100)
        assert middle not in (GREEN, RED)

    def test_gradient_degenerate_range(self):
        assert gradient_for(5, 5, 5) == GREEN


class TestVirtualSpace:
    def test_glyph_per_object(self, space):
        # paper: one shape + one text per node, one glyph per edge
        # plan has 4 nodes and 3 edges -> 4+4+3 = 11 glyphs
        assert len(space) == 11

    def test_shape_and_text_accessors(self, space):
        shape = space.shape_of("n1")
        assert shape.owner == "n1"
        assert "sql.bind" in space.text_of("n1").text

    def test_duplicate_glyph_rejected(self, space):
        with pytest.raises(VizError):
            space.add(RectangleGlyph(glyph_id="shape:n1"))

    def test_remove(self, space):
        space.remove("shape:n0")
        assert "shape:n0" not in space
        with pytest.raises(VizError):
            space.remove("shape:n0")

    def test_shape_at_hit(self, space):
        shape = space.shape_of("n2")
        assert space.shape_at(shape.x, shape.y).owner == "n2"
        assert space.shape_at(-9999, -9999) is None

    def test_node_ids(self, space):
        assert set(space.node_ids()) == {"n0", "n1", "n2", "n3"}

    def test_bounds_nonempty(self, space):
        left, top, right, bottom = space.bounds()
        assert right > left and bottom > top


class TestCamera:
    def test_world_screen_roundtrip(self):
        camera = Camera(x=50, y=50, altitude=150)
        sx, sy = camera.world_to_screen(80, 20, 800, 600)
        wx, wy = camera.screen_to_world(sx, sy, 800, 600)
        assert (wx, wy) == (pytest.approx(80), pytest.approx(20))

    def test_zoom_in_raises_scale(self):
        camera = Camera(altitude=100)
        before = camera.scale
        camera.zoom_in(2.0)
        assert camera.scale > before

    def test_zoom_out_then_in_restores(self):
        camera = Camera(altitude=100)
        camera.zoom_out(2.0)
        camera.zoom_in(2.0)
        assert camera.altitude == pytest.approx(100)

    def test_zoom_in_bounded_above_negative_focal(self):
        camera = Camera(altitude=1)
        for _ in range(10):
            camera.zoom_in(10)
        # negative altitudes magnify past 1:1 but never reach -focal
        assert -camera.focal < camera.altitude
        assert camera.scale > 1.0

    def test_fit_contains_bounds(self):
        camera = Camera()
        camera.fit((0, 0, 1000, 500), 800, 600)
        for corner in ((0, 0), (1000, 0), (0, 500), (1000, 500)):
            sx, sy = camera.world_to_screen(*corner, 800, 600)
            assert -1 <= sx <= 801 and -1 <= sy <= 601

    def test_bad_zoom_factor(self):
        with pytest.raises(VizError):
            Camera().zoom_in(0)


class TestAnimator:
    def test_camera_animation_reaches_target(self):
        camera = Camera(x=0, y=0, altitude=100)
        animator = Animator()
        animator.animate_camera_to(camera, 50, 80, 10, duration_ms=100)
        animator.run_to_completion(step_ms=10)
        assert (camera.x, camera.y, camera.altitude) == (50, 80, 10)

    def test_fill_animation(self, space):
        shape = space.shape_of("n0")
        animator = Animator()
        animator.animate_fill(shape, RED, duration_ms=100)
        animator.run_to_completion(step_ms=25)
        assert shape.fill == RED

    def test_highlight_returns_to_start(self, space):
        shape = space.shape_of("n0")
        shape.fill = WHITE
        animator = Animator()
        animator.animate_highlight([shape], RED, duration_ms=100)
        animator.run_to_completion(step_ms=10)
        assert shape.fill == WHITE

    def test_active_count_drops(self):
        animator = Animator()
        camera = Camera()
        animator.animate_camera_to(camera, 1, 1, 1, duration_ms=50)
        assert animator.active == 1
        animator.run_to_completion()
        assert animator.active == 0


class TestLens:
    def test_identity_outside_radius(self):
        lens = FisheyeLens(0, 0, radius=10, magnification=3)
        assert lens.transform(100, 100) == (100, 100)

    def test_magnifies_near_focus(self):
        lens = FisheyeLens(0, 0, radius=100, magnification=3)
        x, y = lens.transform(10, 0)
        assert x > 10  # pushed outward
        assert y == 0

    def test_focus_fixed_point(self):
        lens = FisheyeLens(5, 5, radius=100)
        assert lens.transform(5, 5) == (5, 5)

    def test_boundary_continuous(self):
        lens = FisheyeLens(0, 0, radius=100, magnification=3)
        inside_x, _ = lens.transform(99.9, 0)
        assert inside_x == pytest.approx(100, abs=0.5)

    def test_magnification_at_centre(self):
        lens = FisheyeLens(0, 0, radius=100, magnification=3)
        assert lens.magnification_at(0, 0) == pytest.approx(4.0)
        assert lens.magnification_at(500, 0) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(VizError):
            FisheyeLens(radius=0)
        with pytest.raises(VizError):
            FisheyeLens(magnification=0.5)

    def test_magnifier_uniform_inside(self):
        from repro.viz.lens import MagnifierLens

        lens = MagnifierLens(0, 0, radius=50, magnification=2)
        assert lens.transform(10, 0) == (20, 0)
        assert lens.transform(100, 0) == (100, 0)
        assert lens.magnification_at(10, 0) == 2
        assert lens.magnification_at(100, 0) == 1.0

    def test_magnifier_tracks_focus(self):
        from repro.viz.lens import MagnifierLens

        lens = MagnifierLens(0, 0, radius=10, magnification=3)
        lens.move_to(100, 100)
        assert lens.transform(0, 0) == (0, 0)  # now outside
        assert lens.transform(101, 100) == (103, 100)

    def test_magnifier_invalid_parameters(self):
        from repro.viz.lens import MagnifierLens

        with pytest.raises(VizError):
            MagnifierLens(radius=-1)
        with pytest.raises(VizError):
            MagnifierLens(magnification=0.9)


class TestView:
    def test_fit_all_then_all_visible(self, space):
        view = View(space, width=400, height=300)
        view.fit_all()
        visible_owners = {
            g.owner for g in view.visible_glyphs()
            if isinstance(g, RectangleGlyph)
        }
        assert visible_owners == {"n0", "n1", "n2", "n3"}

    def test_focus_node_then_pick_center(self, space):
        view = View(space, width=400, height=300)
        view.focus_node("n2")
        picked = view.pick(200, 150)  # viewport centre
        assert picked is not None and picked.owner == "n2"

    def test_render_ascii_shows_boxes(self, space):
        view = View(space, width=100, height=40)
        view.fit_all()
        text = view.render_ascii(columns=100, rows=40)
        assert "#" in text

    def test_render_ascii_shows_colored_state(self, space):
        space.shape_of("n2").fill = RED
        view = View(space, width=120, height=48)
        view.fit_all()
        assert "R" in view.render_ascii(columns=120, rows=48)

    def test_render_svg_carries_fills(self, space):
        space.shape_of("n1").fill = GREEN
        view = View(space)
        svg = view.render_svg()
        assert GREEN.to_hex() in svg
        assert 'id="shape:n1"' in svg
