"""Pin the identity digest and its nine section hashes, so that a change to
any output they hash fails here and the failure names the sections that moved.

A change that moves results on purpose (an LP vertex, a draw, a rounding)
updates ``PINNED`` and ``PINNED_PARTS`` and says in CHANGES.md why the
outputs moved.
"""

from identity_digest import digests

PINNED = "88cc7e4dc93462c0ecb03809bfacb1dcd42e176193fcb1f241b18515bc4ddb83"
PINNED_PARTS = {
    "batch rows": "1f0d388e37f192140ad8741ef53300f30732f6238a543db64cd120a6c4badf26",
    "LP vertices": "5c653c90bf0b4d69de28e06455c7e5c95fdd29964016ac0f2143c95f2a6dbafd",
    "fits": "dfae16fe211004a35c1dd8bd0aeeacef7d4c8a3ae7d74df49e5074f3b9e153d3",
    "tree batches": "1c64e5a702e91d273c4a05d86aa06da0692feeab069aa923fa505db6a110048e",
    "MSTs": "cc028a8ba476508c5ddfcc1fbcb69ddd64650d705606ca7a0ebc05e278a18926",
    "roundings": "23d90b267b7baf23677d7b1c6858c6a90b603053d162079478eee3d7a004cdb5",
    "baselines": "d61ed0bf22ac4ae5cda8495f1c1141fe93ce981702b9a98d7ddbeb0b0ee70af6",
    "brute force": "2f703cf705b8244849714948d11ceb3c2674dc04f872552366b9edd5961f93d9",
    "enumeration": "63da44b33ddb654a3f5711ca4defb85cc18ac37722a8c9fdac7af8f509f65976",
}


def test_identity_digest_is_pinned():
    combined, parts = digests()
    assert parts == PINNED_PARTS  # a failure lists the sections whose hashes moved
    assert combined == PINNED
