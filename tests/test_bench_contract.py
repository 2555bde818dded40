"""The benchmark's tracer still finds every function it wraps by name."""

import sys
from pathlib import Path

import e2sieve.cli  # noqa: F401  (the tracer reads every e2sieve module from sys.modules)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_tracer_installs_and_uninstalls_every_span():
    originals = {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr, _ in tracing.FUNCTION_SPANS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patches
    assert set(originals) <= {(owner.__name__, attr) for owner, attr, _ in patches}
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[mod], attr) is original
