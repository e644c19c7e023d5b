"""Pin the identity digest, so that a change to any output it hashes fails here.

A change that moves results on purpose (an LP vertex, a draw, a rounding)
updates ``PINNED`` and says in CHANGES.md why the outputs moved.
"""

from identity_digest import digest

PINNED = "8184235c47cff04e8049f8d3e6870d0afa46bce8009c280d3d98f24e682863d2"


def test_identity_digest_is_pinned():
    assert digest() == PINNED
