"""Pin the identity digest, so that a change to any output it hashes fails here.

A change that moves results on purpose (an LP vertex, a draw, a rounding)
updates ``PINNED`` and says in CHANGES.md why the outputs moved.
"""

from identity_digest import digest

PINNED = "14a856d272a42e579f78932ba43ecff45c21f0a5971be89bea6fa69e25abf6b0"


def test_identity_digest_is_pinned():
    assert digest() == PINNED
