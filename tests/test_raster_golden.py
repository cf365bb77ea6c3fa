"""Golden digests of the raster screenshot: the PPM bytes, byte for byte.

``raster_golden.json`` was recorded when long edges became segments
and coordinates moved to Brandes & Köpf, by running::

    PYTHONPATH=src python tests/test_raster_golden.py --regen

Every digest moved then because the layout the screenshots show moved;
the rasteriser did not change.  The clipping camera moved with the
layout (it had looked at a spot left of and above the centre, zoomed
10x), so that boxes and edges still cross all four sides.

For q1 and q5 (profiled at scale 0.05, seed 7, two workers) and a
167-chain synthetic plan, each opened as an offline session and replayed
to the end, it holds the sha256 of the bytes ``screenshot`` wrote at
1280x960, at 320x240 and at 640x480 zoomed 8x, plus one camera that
clips boxes and edges at every side of the image.  A change to the
rasteriser that is meant to keep its output passes only if every digest
stays identical.
"""

import hashlib
import json
import os
import sys

import pytest

from repro import Database, Profiler, Stethoscope, plan_to_dot, populate
from repro.tpch import query_sql
from repro.viz.camera import Camera
from repro.viz.glyph import EdgeGlyph, RectangleGlyph
from repro.viz.raster import screenshot
from repro.workloads import synthetic_plan, trace_for_program

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "raster_golden.json")
PLANS = ("q1", "q5", "synthetic_167")
#: name -> (width, height, zoom after fitting the whole plan)
FRAMES = {"1280x960": (1280, 960, None), "320x240": (320, 240, None),
          "640x480_zoom8": (640, 480, 8.0)}
CLIPPED = "q5_clipped"
NAMES = [f"{plan}_{frame}" for plan in PLANS for frame in FRAMES] \
    + [CLIPPED]


def replayed_spaces():
    """plan name -> the virtual space of a session replayed to the end."""
    inputs = {}
    database = Database(workers=2)
    populate(database.catalog, scale_factor=0.05, seed=7)
    for query in ("q1", "q5"):
        profiler = Profiler()
        program = database.execute(query_sql(query),
                                   listener=profiler).program
        inputs[query] = (plan_to_dot(program), profiler.events)
    database.close()
    program = synthetic_plan(chains=167)
    inputs["synthetic_167"] = (plan_to_dot(program),
                               trace_for_program(program, workers=4,
                                                 seed=11))
    spaces = {}
    for name, (dot_text, events) in inputs.items():
        session = Stethoscope.offline_from_memory(dot_text, events)
        session.replay.run_to_end()
        spaces[name] = session.space
    return spaces


def clipping_camera(space, width, height):
    """Zoomed 5x on a point above the plan's centre: boxes and edges
    cross all four sides of the image."""
    camera = Camera()
    camera.fit(space.bounds(), width, height)
    left, top, right, bottom = space.bounds()
    camera.look_at(left + (right - left) / 2, top + (bottom - top) * 2 / 5)
    camera.zoom_in(5.0)
    return camera


def cases(spaces):
    """name -> (space, width, height, camera or None)."""
    out = {}
    for plan in PLANS:
        for frame, (width, height, zoom) in FRAMES.items():
            camera = None
            if zoom is not None:
                camera = Camera()
                camera.fit(spaces[plan].bounds(), width, height)
                camera.zoom_in(zoom)
            out[f"{plan}_{frame}"] = (spaces[plan], width, height, camera)
    space = spaces["q5"]
    out[CLIPPED] = (space, 320, 240, clipping_camera(space, 320, 240))
    return out


def digest_of(space, width, height, camera, path):
    screenshot(space, path, width=width, height=height, camera=camera)
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.fixture(scope="module")
def all_cases():
    return cases(replayed_spaces())


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_case(all_cases, golden):
    assert list(golden) == list(all_cases) == NAMES


def test_clipping_camera_crosses_every_side(all_cases):
    space, width, height, camera = all_cases[CLIPPED]

    def project(wx, wy):
        return camera.world_to_screen(wx, wy, width, height)

    boxes = set()
    lines = set()
    for glyph in space:
        if isinstance(glyph, RectangleGlyph):
            left, top, right, bottom = glyph.bounds()
            (x0, y0), (x1, y1) = project(left, top), project(right, bottom)
            inside_x = x1 >= 0 and x0 < width
            inside_y = y1 >= 0 and y0 < height
            if inside_y and x0 < 0 <= x1:
                boxes.add("left")
            if inside_y and x0 < width <= x1:
                boxes.add("right")
            if inside_x and y0 < 0 <= y1:
                boxes.add("top")
            if inside_x and y0 < height <= y1:
                boxes.add("bottom")
        elif isinstance(glyph, EdgeGlyph):
            for a, b in zip(glyph.points, glyph.points[1:]):
                (ax, ay), (bx, by) = project(*a), project(*b)
                inside = [0 <= ax < width and 0 <= ay < height,
                          0 <= bx < width and 0 <= by < height]
                if any(inside) and not all(inside):
                    lines.add("clipped")
    assert boxes == {"left", "right", "top", "bottom"}
    assert lines == {"clipped"}


@pytest.mark.parametrize("name", NAMES)
def test_screenshot_bytes_unchanged(all_cases, golden, name, tmp_path):
    space, width, height, camera = all_cases[name]
    assert digest_of(space, width, height, camera,
                     str(tmp_path / "shot.ppm")) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_raster_golden.py --regen")
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "shot.ppm")
        recorded = {name: digest_of(*case, path)
                    for name, case in cases(replayed_spaces()).items()}
    with open(GOLDEN_PATH, "w") as out:
        json.dump(recorded, out, indent=1)
        out.write("\n")
