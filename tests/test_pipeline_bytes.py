"""The bytes of a whole pipeline run are pinned: every output file, stdout,
stderr and exit code of the test-size command line (pipeline_manifest.py)."""

import json

import pipeline_manifest


def test_outputs_match_the_manifest(tmp_path):
    with open(pipeline_manifest.MANIFEST) as fh:
        want = json.load(fh)
    got = pipeline_manifest.run(tmp_path)
    differ = pipeline_manifest.differences(want, got)
    assert not differ, (
        f"{len(differ)} outputs differ from {pipeline_manifest.MANIFEST}: {differ}. "
        f"The manifest was made with {want['versions']}, this run with {got['versions']}; "
        "BLAS kernels on another CPU or build may round differently, which changes "
        "every digest downstream of the model. A change that alters outputs on purpose "
        "reruns tests/pipeline_manifest.py and lists the changed files."
    )
