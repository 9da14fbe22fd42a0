"""Reference implementations kept only as test oracles.

A second code path that ``src/`` no longer runs lives here, next to the
properties that compare the production path with it bit for bit.
"""
