"""Test-only reference implementations.

A reference that the program never runs, and that exists only so a
fast path can be compared against it, lives here rather than in
``src/``.
"""
