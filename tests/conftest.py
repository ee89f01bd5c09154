"""Shared test helpers."""

import contextlib
import sys

import pytest


@contextlib.contextmanager
def _spare_frames(spare):
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + spare)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture
def spare_frames():
    """`with spare_frames(k):` runs its block with only k frames of
    recursion limit to spare, so code that recurses once per n fails at a
    small n instead of at one too large to compute in a test."""
    return _spare_frames
