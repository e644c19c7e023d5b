"""Pin the identity digest and its nine section hashes, so that a change to
any output they hash fails here and the failure names the sections that moved.

A change that moves results on purpose (an LP vertex, a draw, a rounding)
updates ``PINNED`` and ``PINNED_PARTS`` and says in CHANGES.md why the
outputs moved.
"""

from identity_digest import digests

PINNED = "5f4750e6e527907ab7f8b1bb44eb63c0768538dfbbfd6f155953f6dd7ff743f9"
PINNED_PARTS = {
    "batch rows": "1f0d388e37f192140ad8741ef53300f30732f6238a543db64cd120a6c4badf26",
    "LP vertices": "5c653c90bf0b4d69de28e06455c7e5c95fdd29964016ac0f2143c95f2a6dbafd",
    "fits": "497423bb8a4a1f636a3898135d03c60683ee2e9f2230141e1f8879ec82412ca5",
    "tree batches": "768c841f7eddf6bc3fb737e0e827c03d6f694aad3a50bc1da2c6810fb2ac1fc2",
    "MSTs": "cc028a8ba476508c5ddfcc1fbcb69ddd64650d705606ca7a0ebc05e278a18926",
    "roundings": "eff555f5189b3053fb8c39ec3f661815baa1e5ea013995176d18fea153cc360b",
    "baselines": "d61ed0bf22ac4ae5cda8495f1c1141fe93ce981702b9a98d7ddbeb0b0ee70af6",
    "brute force": "2f703cf705b8244849714948d11ceb3c2674dc04f872552366b9edd5961f93d9",
    "enumeration": "63da44b33ddb654a3f5711ca4defb85cc18ac37722a8c9fdac7af8f509f65976",
}


def test_identity_digest_is_pinned():
    combined, parts = digests()
    assert parts == PINNED_PARTS  # a failure lists the sections whose hashes moved
    assert combined == PINNED
