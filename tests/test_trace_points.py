"""Every binding that ``bench/tracing.py`` wraps still exists.

The tracer replaces each ``(owner, attribute)`` of ``_patch_points()`` by
name, reading the original through ``vars(owner)[attr]``; a binding renamed
or deleted in the library would make every traced benchmark run fail. This
loads the tracer from its file and checks each point without running it.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    points = load_tracing()._patch_points()
    assert points
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in points
        if not callable(vars(owner).get(attr))
    ]
    assert not missing, f"bench/tracing.py wraps bindings that no longer exist: {missing}"

