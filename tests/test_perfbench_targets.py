"""The traced benchmark's layer boundaries exist in the program.

perfbench/layers.py lists every module attribute that the traced run
(`python3 perfbench/run.py --trace 1`) wraps in a span.  A renamed function
or a dropped import would otherwise surface only when the benchmark runs;
here it fails pytest.  The benchmark files are loaded by path, as they are
scripts rather than a package.
"""

import importlib.util
import pathlib

import quadstage
import quadstage.cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "config", "kinematics", "geometry", "simenv", "postprocess", "logio")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attribute(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_every_traced_boundary_installs_and_restores():
    layers, spans = load("layers"), load("spans")
    boundaries = layers.targets({name: getattr(quadstage, name) for name in MODULES})
    originals = [attribute(owner, attr) for owner, attr, _, _ in boundaries]
    assert all(callable(fn) for fn in originals)
    tracer = spans.Tracer()
    try:
        for owner, attr, name, counter in boundaries:
            tracer.install(owner, attr, name, counter)
        wrapped = [attribute(owner, attr) for owner, attr, _, _ in boundaries]
    finally:
        tracer.uninstall()
    assert all(fn is not original for fn, original in zip(wrapped, originals))
    for (owner, attr, name, _), original in zip(boundaries, originals):
        assert attribute(owner, attr) is original, f"{name} ({attr}) not restored"
