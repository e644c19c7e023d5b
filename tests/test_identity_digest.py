"""Pin the identity digest, so that a change to any output it hashes fails here.

A change that moves results on purpose (an LP vertex, a draw, a rounding)
updates ``PINNED`` and says in CHANGES.md why the outputs moved.
"""

from identity_digest import digest

PINNED = "15dd37bf2f4d15669fa4d1ab2bc46ba5b6a430ea230a47df6116947c3d58f2d3"


def test_identity_digest_is_pinned():
    assert digest() == PINNED
