"""Pin the identity digest and its nine section hashes, so that a change to
any output they hash fails here and the failure names the sections that moved.

A change that moves results on purpose (an LP vertex, a draw, a rounding)
updates ``PINNED`` and ``PINNED_PARTS`` and says in CHANGES.md why the
outputs moved.
"""

from identity_digest import digests

PINNED = "d8bd3fbf79de80b7832524d2b4f7d4b83f1e91644c8ccd3f328fde311def504e"
PINNED_PARTS = {
    "batch rows": "358e92c34261ac67206235532d682a24bf03f7e05e6c79874d2d57e503426601",
    "LP vertices": "5c653c90bf0b4d69de28e06455c7e5c95fdd29964016ac0f2143c95f2a6dbafd",
    "fits": "11a5019d4b331b7837bb3c9d17c7219918a045f11c8b447765fbf35b0624df67",
    "tree batches": "14d8a3d74ebeca51ad62e40751afc390154e41d10c2ba7cbd07e938107989f8c",
    "MSTs": "cc028a8ba476508c5ddfcc1fbcb69ddd64650d705606ca7a0ebc05e278a18926",
    "roundings": "1c4be8c5ab9ebf8f26f375c5ca9fd028d25079cdbeef02406d60e424f6816cac",
    "baselines": "d61ed0bf22ac4ae5cda8495f1c1141fe93ce981702b9a98d7ddbeb0b0ee70af6",
    "brute force": "2f703cf705b8244849714948d11ceb3c2674dc04f872552366b9edd5961f93d9",
    "enumeration": "63da44b33ddb654a3f5711ca4defb85cc18ac37722a8c9fdac7af8f509f65976",
}


def test_identity_digest_is_pinned():
    combined, parts = digests()
    assert parts == PINNED_PARTS  # a failure lists the sections whose hashes moved
    assert combined == PINNED
