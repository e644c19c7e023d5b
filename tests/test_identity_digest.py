"""Pin the identity digest and its nine section hashes, so that a change to
any output they hash fails here and the failure names the sections that moved.

A change that moves results on purpose (an LP vertex, a draw, a rounding)
updates ``PINNED`` and ``PINNED_PARTS`` and says in CHANGES.md why the
outputs moved.
"""

from identity_digest import digests

PINNED = "3df4d7fe83245150c2ec20889a2a119e5d6982bc9917f3eecc30f70e0ed2b3d0"
PINNED_PARTS = {
    "batch rows": "358e92c34261ac67206235532d682a24bf03f7e05e6c79874d2d57e503426601",
    "LP vertices": "5c653c90bf0b4d69de28e06455c7e5c95fdd29964016ac0f2143c95f2a6dbafd",
    "fits": "11a5019d4b331b7837bb3c9d17c7219918a045f11c8b447765fbf35b0624df67",
    "tree batches": "4d1c3c3e710576d0ffbc89329cede8761495ae311efe1308e9f8b7fff5bce759",
    "MSTs": "cc028a8ba476508c5ddfcc1fbcb69ddd64650d705606ca7a0ebc05e278a18926",
    "roundings": "759a3cd46ec0a06e502a000cadb3e030f7fec7cf3067c5c91ea3a12da38778b7",
    "baselines": "d61ed0bf22ac4ae5cda8495f1c1141fe93ce981702b9a98d7ddbeb0b0ee70af6",
    "brute force": "2f703cf705b8244849714948d11ceb3c2674dc04f872552366b9edd5961f93d9",
    "enumeration": "63da44b33ddb654a3f5711ca4defb85cc18ac37722a8c9fdac7af8f509f65976",
}


def test_identity_digest_is_pinned():
    combined, parts = digests()
    assert parts == PINNED_PARTS  # a failure lists the sections whose hashes moved
    assert combined == PINNED
