"""The benchmark's outside-in tracer wraps package names by dotted path.

perfbench/tracer.py is loaded from its file, neither installed nor run.
Every origin and alias path in its TARGETS must resolve against the
package, and each alias must be the origin's own object, so deleting or
rebinding a wrapped name fails here and not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import itermellin

# the tracer resolves paths below these submodules, which the benchmark's
# worker imports before installing it
import itermellin.cli  # noqa: F401
import itermellin.oracles  # noqa: F401
import itermellin.suites  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_path_resolves():
    tracer = load_tracer()

    def resolved(path):
        owner, attr = tracer._resolve(itermellin, path)
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(found), path
        return found

    assert tracer.TARGETS
    for span, _, origin, aliases in tracer.TARGETS:
        original = resolved(origin)
        for alias in aliases:
            assert resolved(alias) is original, (span, alias)
