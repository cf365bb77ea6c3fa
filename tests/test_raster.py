"""Tests for the raster (PPM screenshot) backend."""

import pytest

from repro.dot import plan_to_graph
from repro.errors import VizError
from repro.layout import layout_graph
from repro.mal.parser import parse_instruction_text
from repro.viz import Camera, build_virtual_space
from repro.viz.color import Color, GREEN, RED, WHITE
from repro.viz.raster import (
    RasterImage,
    RasterRenderer,
    load_ppm,
    screenshot,
)


@pytest.fixture
def space():
    program = parse_instruction_text("""
        X_1 := sql.mvc();
        X_2 := sql.bind(X_1,"sys","t","x",0);
        X_3 := algebra.select(X_2,1);
        sql.exportResult(X_3);
    """)
    return build_virtual_space(layout_graph(plan_to_graph(program)))


def rgb_triples(image):
    """Every pixel's three bytes, row-major."""
    data = bytes(image.pixels)
    assert len(data) == image.width * image.height * 3
    return [data[i:i + 3] for i in range(0, len(data), 3)]


class TestRasterImage:
    def test_background_white(self):
        image = RasterImage(10, 10)
        assert image.pixel(5, 5) == WHITE

    def test_fill_rect(self):
        image = RasterImage(10, 10)
        image.fill_rect(2, 2, 4, 4, RED)
        assert image.pixel(3, 3) == RED
        assert image.pixel(6, 6) == WHITE

    def test_fill_rect_clipped(self):
        image = RasterImage(5, 5)
        image.fill_rect(-10, -10, 100, 100, GREEN)
        assert image.pixel(0, 0) == GREEN
        assert image.pixel(4, 4) == GREEN

    def test_outline_keeps_interior(self):
        image = RasterImage(10, 10)
        image.outline_rect(1, 1, 8, 8, RED)
        assert image.pixel(1, 4) == RED
        assert image.pixel(4, 4) == WHITE

    def test_line_endpoints(self):
        image = RasterImage(10, 10)
        image.draw_line(0, 0, 9, 9, RED)
        assert image.pixel(0, 0) == RED
        assert image.pixel(9, 9) == RED
        assert image.pixel(5, 5) == RED

    def test_invalid_dimensions(self):
        with pytest.raises(VizError):
            RasterImage(0, 5)

    def test_pixel_outside_image(self):
        with pytest.raises(VizError):
            RasterImage(4, 4).pixel(4, 0)

    def test_ppm_roundtrip(self, tmp_path):
        image = RasterImage(7, 3)
        image.fill_rect(1, 1, 2, 2, RED)
        path = str(tmp_path / "img.ppm")
        image.save(path)
        loaded = load_ppm(path)
        assert loaded.width == 7 and loaded.height == 3
        assert loaded.pixel(1, 1) == RED
        assert loaded.pixel(6, 0) == WHITE

    def test_load_rejects_non_ppm(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"PNG nope")
        with pytest.raises(VizError):
            load_ppm(str(path))

    @staticmethod
    def load_bytes(tmp_path, data):
        path = tmp_path / "bad.ppm"
        path.write_bytes(data)
        return load_ppm(str(path))

    def test_load_rejects_truncated_pixels(self, tmp_path):
        with pytest.raises(VizError, match="truncated"):
            self.load_bytes(tmp_path, b"P6\n4 4\n255\n" + bytes(10))

    def test_load_rejects_non_numeric_size(self, tmp_path):
        with pytest.raises(VizError, match="size"):
            self.load_bytes(tmp_path, b"P6\nx y\n255\n" + bytes(48))

    def test_load_rejects_three_numbers_in_size(self, tmp_path):
        with pytest.raises(VizError, match="size"):
            self.load_bytes(tmp_path, b"P6\n4 4 4\n255\n" + bytes(48))

    def test_load_rejects_sixteen_bit_maxval(self, tmp_path):
        with pytest.raises(VizError, match="maxval"):
            self.load_bytes(tmp_path, b"P6\n4 4\n65535\n" + bytes(96))


class TestRenderer:
    def test_nodes_visible_in_render(self, space):
        camera = Camera()
        camera.fit(space.bounds(), 200, 150)
        image = RasterRenderer(200, 150).render(space, camera)
        # some pixels must be non-white (boxes and edges drawn)
        non_white = sum(rgb != b"\xff\xff\xff" for rgb in rgb_triples(image))
        assert non_white > 50

    def test_colored_state_visible(self, space):
        space.shape_of("n2").fill = RED
        camera = Camera()
        camera.fit(space.bounds(), 300, 200)
        rendered = RasterRenderer(300, 200).render(space, camera)
        reds = sum(rgb[:2] == bytes((RED.r, RED.g))
                   for rgb in rgb_triples(rendered))
        assert reds > 0

    def test_screenshot_one_call(self, space, tmp_path):
        path = str(tmp_path / "plan.ppm")
        image = screenshot(space, path, width=320, height=240)
        assert image.width == 320
        loaded = load_ppm(path)
        assert loaded.height == 240
