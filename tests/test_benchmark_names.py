"""The names the benchmark's tracer wraps stay where it looks for them.

perfbench/tracing.py patches package functions and methods by name and reads
their arguments by position, so a renamed or re-signed entry point would
silently report zero calls. This runs the tracer over one tracking pass and
one training window.
"""

import importlib.util
import os

import numpy as np

from trackdistill import trackers
from trackdistill.mdp import State
from trackdistill.model import StudentConfig, StudentModel
from trackdistill.video import SyntheticSpec, generate_video

SMALL = StudentConfig(patch_size=16, conv_channels=(4, 8), fc_dim=16, hidden_dim=12)


def load_tracing():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_counts_the_student_steps():
    spec = SyntheticSpec(width=48, height=48, num_frames=6, min_size=12, max_size=18)
    video = generate_video(spec, 3, "clip")
    model = StudentModel(SMALL)
    params = model.init_params(1)
    rng = np.random.default_rng(5)
    states = [State(rng.uniform(0, 255, (16, 16, 3)), rng.uniform(0, 255, (16, 16, 3)))
              for _ in range(3)]
    tracer = load_tracing().Tracer()
    tracer.install()
    patched = list(tracer._undo)  # (owner, attribute, original) of every patch
    try:
        assert {attr for owner, attr, _ in patched if owner is StudentModel} >= {
            "forward", "forward_window"}
        # through the module: the tracer patches bindings inside the package
        run = trackers.tras(video, video.ground_truth[0], model, params)
        model.forward_window(params, states, model.zero_hidden())
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
    assert len(run.boxes) == 5
    assert tracer.count_spans("model.forward", "tras/") == 5
    assert tracer.counts["model.forward_window.items"] == 3
