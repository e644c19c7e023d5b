"""Pin the identity digest, so that a change to any output it hashes fails here.

A change that moves results on purpose (an LP vertex, a draw, a rounding)
updates ``PINNED`` and says in CHANGES.md why the outputs moved.
"""

from identity_digest import digest

PINNED = "2fdeac7fb5ff8fd143a5c71471a6bfe98d5edb8d4daf38154931321ca6665994"


def test_identity_digest_is_pinned():
    assert digest() == PINNED
