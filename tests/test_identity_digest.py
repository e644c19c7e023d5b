"""Pin the identity digest, so that a change to any output it hashes fails here.

A change that moves results on purpose (an LP vertex, a draw, a rounding)
updates ``PINNED`` and says in CHANGES.md why the outputs moved.
"""

from identity_digest import digest

PINNED = "5f4750e6e527907ab7f8b1bb44eb63c0768538dfbbfd6f155953f6dd7ff743f9"


def test_identity_digest_is_pinned():
    assert digest() == PINNED
