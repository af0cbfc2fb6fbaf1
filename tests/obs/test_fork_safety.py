"""Fork-safety of the obs layer.

A :class:`~repro.obs.sinks.JsonlSink` crosses a fork as an inherited
file *object*; :func:`repro.obs.after_fork_in_child` must rebind it to
the child's own descriptor, drop the inherited span stack (child spans
are roots, not children of whatever the parent had open), and restart
span ids.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro import obs
from repro.obs.sinks import JsonlSink, load_jsonl

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or sys.platform.startswith("win"),
    reason="fork-based tests need a POSIX fork",
)


def test_jsonl_sink_survives_fork(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    with obs.use(sink):
        with obs.span("parent.before"):
            pass
        with obs.span("parent.outer"):
            # Fork while a span is open: the child must not close under
            # it nor emit through the parent's file object.
            child = os.fork()
            if child == 0:
                try:
                    obs.after_fork_in_child()
                    with obs.span("child.work", worker=0):
                        pass
                finally:
                    os._exit(0)
            _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
    sink.close()

    events = load_jsonl(path)  # raises if any line is torn JSON
    spans = {e["name"]: e for e in events if e["type"] == "span"}
    assert set(spans) == {"parent.before", "parent.outer", "child.work"}
    assert spans["child.work"]["pid"] != spans["parent.outer"]["pid"]
    # The child's inherited stack was dropped: its span is a root, and
    # its ids restarted independently of the parent's counter.
    assert spans["child.work"]["parent"] is None
    assert spans["child.work"]["id"] == 1
    assert spans["child.work"]["attrs"]["worker"] == 0

