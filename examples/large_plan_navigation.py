"""Navigating a >1000-node query plan (paper feature 5 and Figure 2).

Generates a mitosis-style synthetic plan with more than 1000 nodes, lays
it out, builds the glyph scene, and drives the ZGrviewer-style
interactions the paper demonstrates: bird's-eye fit, keyboard/mouse
navigation to a node, zoom levels, animated camera transitions and the
fish-eye lens.

Run:  python examples/large_plan_navigation.py
"""

import time

from repro.core.coloring import color_buffer
from repro.dot import plan_to_graph
from repro.layout import LayeredLayout
from repro.viz import Animator, FisheyeLens, View, build_virtual_space
from repro.workloads import synthetic_plan, trace_for_program


def main() -> None:
    # a plan comfortably past the paper's 1000-node mark
    plan = synthetic_plan(chains=170, chain_length=4)
    print(f"synthetic plan: {len(plan)} instructions")

    graph = plan_to_graph(plan)
    engine = LayeredLayout()
    started = time.perf_counter()
    layout = engine.layout(graph)
    elapsed = time.perf_counter() - started
    print(f"layout: {len(layout.node_ids)} nodes in {elapsed:.2f}s, "
          f"{engine.last_crossings} edge crossings, "
          f"canvas {layout.width:.0f}x{layout.height:.0f}")

    space = build_virtual_space(layout)
    print(f"virtual space: {len(space)} glyphs "
          f"(shape+text per node, one per edge)")

    # bird's-eye view of the whole plan
    view = View(space, width=1200, height=800)
    view.fit_all()
    print(f"bird's-eye: camera altitude {view.camera.altitude:.0f}, "
          f"{len(view.visible_glyphs())} glyphs visible")

    # navigate: zoom onto one aggregation node
    target = f"n{len(plan) - 3}"  # near the fold at the bottom
    animator = Animator()
    shape = space.shape_of(target)
    animator.animate_camera_to(view.camera, shape.x, shape.y, 20.0,
                               duration_ms=300)
    steps = animator.run_to_completion(step_ms=16)
    print(f"animated zoom to {target} in {steps} frames; "
          f"now {len(view.visible_glyphs())} glyphs visible")

    picked = view.pick(view.width / 2, view.height / 2)
    print(f"click at viewport centre hits: {picked.owner} "
          f"({space.text_of(picked.owner).text[:50]})")

    # fish-eye lens around the focus
    view.lens = FisheyeLens(shape.x, shape.y, radius=300, magnification=3)
    print(f"fisheye magnification at focus: "
          f"{view.lens.magnification_at(shape.x, shape.y):.1f}x")

    # colour the long-running instructions from a simulated trace
    events = trace_for_program(plan, workers=8, long_fraction=0.02, seed=5)
    actions = color_buffer(events)
    for action in actions:
        space.shape_of(action.node_id).fill = action.color
    reds = sum(1 for a in actions if a.color.r > a.color.g)
    print(f"trace replay coloured {len({a.pc for a in actions})} nodes "
          f"({reds} RED events)")

    # a keyhole render of the focus area
    view.lens = None
    print("\n--- zoomed view around the fold ---")
    print(view.render_ascii(columns=110, rows=30))


if __name__ == "__main__":
    main()
