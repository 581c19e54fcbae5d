"""Golden pins: the bytes RS(6,3) writes, and every way of reading them back.

Each case encodes seeded random bytes with ``RSCode(6, 3)``; one length is
a multiple of k and one is not, so the zero padding of the last data shard
is covered.  The sha256 of every fragment is pinned, so a change to the
field kernel, the Cauchy parity matrix or the shard layout fails here.
``decode`` must return the original bytes for all 84 patterns of three
erasures, and ``reconstruct_fragment`` must rebuild every fragment
byte-for-byte from the k highest surviving indices (parity included).
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.storage.reedsolomon import RSCode

K, M = 6, 3
CASES = [(1, 6 * 4096), (7, 10007)]


def _data(seed, length):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()


def _fragment_digests(seed, length):
    frags = RSCode(K, M).encode(_data(seed, length))
    return [hashlib.sha256(f).hexdigest() for f in frags]


GOLDEN_FRAGMENTS = {
    (1, 24576): [
        "73ba40d48a2cc6c622886c681a817ed7ca1f9ca33b9936329b30bd8df8a3b8e7",
        "443905776dc5708b48e5e56a7a63198a050cf9472da28af8b80f1887401d3d7e",
        "3927eaa7cf886c305dd2925e01c82b48037d1b114f52882e28cce772c58f37ee",
        "d91510ff53306d686277431659e22867f1a1647a6f52470f492bab0734903285",
        "39f2f7e7841f2f903ce43d964a8be6d8c2f52285d608065956185edb49872b53",
        "1794922adb7ccbff682d688bf610e511782223a8a8737227115c3eb0c8ca84c3",
        "751e463736a23cebbbc4cc4759ff23ace7b1916e8295e1e9c53047b851ae5831",
        "fafb7aab16f463c2a0d0d55e4ec672c7d9ba415ec9b0dd82714f7e2ce49eda90",
        "babf42dbba62c23c5d787ecf9025838a7973f0d57839b5ea293d5a1f61b5f277",
    ],
    (7, 10007): [
        "cab32a47a71838953f330df0454af4991bfb628a65f15e102c49785c3502c43a",
        "bbf9578d367ec3459c734ca55372d40fce7aa0c022ee449fd8c71a080a6e33d3",
        "390d7e1d674200a68d9f01dfa43ab7d80f0685263917b4968fcfb3a872530bba",
        "bbc62b850bed51a797b77cac50f46afb569b90b118ab48eb99aea38ae3649d88",
        "4bcf514124f9e66ea86fbfe1d0255541518ae3ac3b62e98672c18a036065ee09",
        "cf42b4e5e37f91c6798db755baab52d6794a9a1ea2fcc7fbb5eef7bd4b90246b",
        "4bb67ce686c4fe88d66f2f09736e25c440706c173746ba31d83ffdf5d22de120",
        "fde434f0becbce31cdea3f07cf472920a49b61a37dc805ecd54b5694c8aee5e2",
        "f153b65d71a098c83af3b939d85fcd9740b8c295671d116aebee725ea4e98217",
    ],
}


@pytest.mark.parametrize("seed,length", CASES)
def test_encode_is_pinned(seed, length):
    assert _fragment_digests(seed, length) == GOLDEN_FRAGMENTS[seed, length]


@pytest.mark.parametrize("seed,length", CASES)
def test_decode_every_three_erasure_pattern(seed, length):
    code = RSCode(K, M)
    data = _data(seed, length)
    frags = code.encode(data)
    patterns = list(itertools.combinations(range(K + M), M))
    assert len(patterns) == 84
    for lost in patterns:
        alive = {i: frags[i] for i in range(K + M) if i not in lost}
        assert code.decode(alive, orig_len=length) == data, lost


@pytest.mark.parametrize("seed,length", CASES)
def test_reconstruct_every_fragment(seed, length):
    code = RSCode(K, M)
    frags = code.encode(_data(seed, length))
    for missing in range(K + M):
        others = [i for i in range(K + M) if i != missing]
        alive = {i: frags[i] for i in others[-K:]}
        got = code.reconstruct_fragment(alive, missing, orig_len=length)
        assert got == frags[missing], missing
