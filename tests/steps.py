"""Interpreter line events inside the library, a deterministic cost measure.

line_events(call, *args) runs one call under sys.settrace and counts the
"line" events of the frames whose code lies in the vtcodes package, so the
count covers the library's own Python lines and nothing of the caller, the
standard library or pytest. The count depends on the Python version, not on
the machine or its load, so budgets built from it check how a call's work
grows with n rather than how long it takes.
"""

from __future__ import annotations

import os
import sys

import vtcodes

PACKAGE = os.path.dirname(os.path.abspath(vtcodes.__file__)) + os.sep


def line_events(call, *args) -> int:
    """Line events in vtcodes frames during call(*args); the call's own
    exceptions propagate and the tracer in force before is restored."""
    count = 0

    def in_package(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return in_package

    def on_call(frame, event, arg):
        return in_package if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return count
