"""The functions that perfbench/spans.py patches by name are where it looks them up."""

import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_a_callable_of_its_owner():
    # a traced run replaces owner.__dict__[attr]; a renamed or dropped name
    # breaks it, and no other Tier-1 test runs the tracer. run_path compiles
    # the source in memory, so nothing is written under perfbench/
    patches = runpy.run_path(str(SPANS))["PATCHES"]
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in patches
               if not callable(vars(owner).get(attr))]
    assert patches
    assert missing == []
