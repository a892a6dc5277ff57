"""The benchmark's hooks into pagen: its tracer wraps pagen functions by
name and its layer probes call them with fixed signatures, so a rename or
a changed signature would otherwise break only the traced benchmark run."""

import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import pagen  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
from conftest import toy_config  # noqa: E402
# the tracer wraps functions of these modules, which `import pagen` does not load
from pagen import corpus, evaluate, generation, metrics, model, objective, trainer  # noqa: E402,F401


def test_tracer_finds_every_call_site():
    tracer = tracing.Tracer()
    with tracer.installed(pagen):
        assert tracer.missing == []


def test_layer_probes_run_at_toy_sizes():
    spec = probes.Spec(config=toy_config(), batch=2, q_len=3, r_len=3, beam=2)
    out = probes.run(spec, seed=0)
    assert out
    assert all(math.isfinite(v) for v in out.values()), out
