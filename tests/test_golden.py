"""Golden containers: pinned bytes and decoded values for fixed-seed grids.

Each case compresses a seeded grid and checks the SHA-256 of the container
and of the decompressed float64 values against digests recorded when the
wire format was frozen.  Any change to the bit layout, to the pipeline
arithmetic or to padding shows up here as a digest mismatch.
"""

import hashlib

import numpy as np
import pytest

from zfpkit.codec import CodecParams, compress, decompress

F64 = (53, 62)
F32 = (24, 30)


def seeded_grid(shape, seed, zero_blocks=False):
    """Signed values with per-element exponents spread over about 2**+-12."""
    rng = np.random.default_rng(seed)
    grid = rng.standard_normal(shape) * np.exp2(rng.integers(-12, 13, size=shape))
    if zero_blocks:
        # zero every other block along the slowest axis
        for start in range(0, shape[0], 8):
            grid[start:start + 4] = 0.0
    return grid


def _matrix():
    shapes = {1: (32,), 2: (8, 8), 3: (4, 4, 8)}
    for d, shape in shapes.items():
        for name, (k, q) in (("f64", F64), ("f32", F32)):
            for beta in (0, 6, q - 2 * d + 2):
                yield (f"d{d}-{name}-beta{beta}", shape, dict(d=d, k=k, q=q, beta=beta), 11)


CASES = list(_matrix()) + [
    ("wide-d2-f64", (8, 8), dict(d=2, k=53, q=62, beta=64, allow_wide_beta=True), 11),
    ("wide-d3-f32", (4, 4, 8), dict(d=3, k=24, q=30, beta=32, allow_wide_beta=True), 11),
    ("ragged-d2-f64", (10, 7), dict(d=2, k=53, q=62, beta=40), 11),
    ("ragged-d3-f32", (5, 6, 3), dict(d=3, k=24, q=30, beta=20), 11),
    ("zero-blocks-d2-f64", (16, 8), dict(d=2, k=53, q=62, beta=30), 11),
    ("zero-blocks-d1-f32", (40,), dict(d=1, k=24, q=30, beta=28), 11),
    ("b_e13-d2-f64", (8, 8), dict(d=2, k=53, q=62, beta=48), 13),
    # the toy pairing, a q > 62 pairing, and q = 62 grids at small beta whose
    # inverse lifting leaves the int64 range
    ("toy-d1", (32,), dict(d=1, k=13, q=9, beta=9), 11),
    ("toy-d2", (10, 7), dict(d=2, k=13, q=9, beta=7), 11),
    ("toy-d3", (4, 4, 8), dict(d=3, k=13, q=9, beta=11, allow_wide_beta=True), 11),
    ("q80-d2", (8, 8), dict(d=2, k=53, q=80, beta=40), 11),
    ("small-beta-d2-f64", (8, 8), dict(d=2, k=53, q=62, beta=4), 11),
    ("small-beta-d3-f64", (4, 4, 8), dict(d=3, k=53, q=62, beta=6), 11),
    # uniform(-1, 1) values at q = 62: some blocks' inverse lifting wraps int64
    ("uniform-d1-f64", (32,), dict(d=1, k=53, q=62, beta=2), 11),
    ("uniform-d2-f64", (8, 8), dict(d=2, k=53, q=62, beta=4), 11),
    ("uniform-d3-f64", (4, 4, 8), dict(d=3, k=53, q=62, beta=5), 11),
]

# name -> (sha256 of the container, sha256 of the decompressed float64 bytes)
GOLDEN = {
    "d1-f64-beta0": (
        "48ccf482a7b907b428cb0833edbf76aa57c8020ba24cc9b31a6243fddb68c589",
        "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1"),
    "d1-f64-beta6": (
        "f65575ed85c9d7b9fdb3d200f1d468039bea5dd5dbc8f50046a17c7f70921e88",
        "d05f3d6527757b662132ab9282e581582acca91f0fa92aba731dd5553e88918b"),
    "d1-f64-beta62": (
        "94efeb13c912803f30a71652a0a2be6209333f398a10a9d5a7148c148021f90d",
        "59a87dab26da29d41afb606812de2ac6a0ec252bd677b6d3d2b2d1018e3367d2"),
    "d1-f32-beta0": (
        "4d8a3af25fe9e9725e535a0306ae43729d1f2dfe8a1a2316b23e8559261ca295",
        "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1"),
    "d1-f32-beta6": (
        "1b1c260c126a03a820df31667e7db60d10638da751355ba5008ecb639c06c0a8",
        "c8c67d569a8cb83befe39098796256f14fa312feab69988973f3f28ca89ee371"),
    "d1-f32-beta30": (
        "bedd89f02100325671dcbffc818636527a24197903130a39444992f4bc35a240",
        "82f9099faff09fcadccda2c60a9327f9775538dcf5a75ff73233ba8d08c23959"),
    "d2-f64-beta0": (
        "40544d1d5d89332a40316ffede5faf17a7064691d585182f2ce6b1c7de3ebb9d",
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560"),
    "d2-f64-beta6": (
        "29d36fc3be4f1eeaadf4a204a341372eec629669b5e40e5e628860b72e089443",
        "67ae3e06076db32986d08a4d0e6c56365be891c0e8aa0b41507c949cf9f447e1"),
    "d2-f64-beta60": (
        "a1b87092339d159d62fd91a0d4ac30f31840264006ecaf87896692c162931727",
        "89d9ded551a13f4d27f11d896a52e5f0c40ac1cbe13c64f2bba9015687f841c2"),
    "d2-f32-beta0": (
        "ecb0b577056c90a4ff77d35625c957ade4b9763301c4728a9810925fa22ec7ea",
        "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560"),
    "d2-f32-beta6": (
        "6032064f4c86379bf4e30a3d6417c3c55c7e62093f2bd1bd4cee90e641933a2d",
        "66b96dca9d0b3386bb0c3ccd7e365be7651e0f2ff4868be010fb41e7a97e839e"),
    "d2-f32-beta28": (
        "9d9ec1068b4e52364064ea1915e333a6846d9e438f408e48ff8cc4a8f12160b4",
        "0f7bf1cab08b013f39269fbfa853e0c34dcc98c3f96da8bedda001d17fe64574"),
    "d3-f64-beta0": (
        "ba8ee15cae74269dd148c0b9ace40c4e6ddc699ceb3a807e073f4daafee97e09",
        "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef"),
    "d3-f64-beta6": (
        "0c0fbe72603919fc94655ce0e83cd10e5d54f5da4aae90c299ddfcc0e6a57947",
        "25d1d4c4ebb71613df17378812923feb6c964d07e4a256604ed11689de9e53c4"),
    "d3-f64-beta58": (
        "0674de90d3aaa4e1e11ff5601dc1b983a073f1d22aff0ec1752bf231f3ef3d22",
        "a335ae95b4d977a81618dc81da2b7dd42a79454f0e45fa7e124192edd17c3936"),
    "d3-f32-beta0": (
        "f26e3a997dbecdf275f7eb77aa7a0e21abc5e3173140de9786f4e0aad879bcc0",
        "5f70bf18a086007016e948b04aed3b82103a36bea41755b6cddfaf10ace3c6ef"),
    "d3-f32-beta6": (
        "8d3395b61fa3c17a06224b3faf3af1493c928fd400a58ed4868de93788edc0a9",
        "9bed85b502dd53b6ac1d34c309be5580eb6fd0e5e9d1ab90997ad50c090c4d0a"),
    "d3-f32-beta26": (
        "a2aa7076e6762e75cda4624eb6f09ab23b105bc74dda75521d8f4d8281519535",
        "45d4cf47124873c3b6bb37d5fce2563507c4a15a6700b7a45da49779f0c411ff"),
    "wide-d2-f64": (
        "b3cee5ac85fb1393def4aac59d740b65ed60fc55a1064903d3776043171abdc9",
        "f5c2a1a3ec16bfba3ce9ae20c4d87a751b8ae4b1257dd98e45b7416bd8be911b"),
    "wide-d3-f32": (
        "9bdd57587cf24fac9ca333b0aadc4ebd45f2ac9f85904e2a885711fea087900b",
        "0d8ae93eeddda30c7ff16ce6e1a25882102df6e900a82dd01f02d1f4712fcae0"),
    "ragged-d2-f64": (
        "82458281645bd4e0f59cafaa0bb413dabde43a108dd80b9146fb3718593fef25",
        "1a26aa2578125425f228bb6d78577e1333db9089ac00b9db10ae731945c2eaff"),
    "ragged-d3-f32": (
        "92cac812f49617cb106c58b3030026f9a2a67112aa3b1f33dc3e73f101d1ad03",
        "39774dd8a25253d2f530642ce5e581a392b6a9af4a795a8282a569520cb33a8f"),
    "zero-blocks-d2-f64": (
        "835aefbc85601a0c9d47924abe26d919267d00e141b4abb7656e5bdfc24ee731",
        "3bdca2d330fbd9adce4974732af3eade4fac9eec51a3a7baca7971ae3affbb78"),
    "zero-blocks-d1-f32": (
        "7349acd309c98286c9c7d0ab0ef24fa50595d537806dfac89d0ee4cbeb8c4bfd",
        "720b30aa3c70ff36a1fdd7d4aa37c7452e11cef452f86b0e3645bf8b8ab56832"),
    "b_e13-d2-f64": (
        "b8ed3b833e5f9a4379fad9f7db53eebb8b868812eb3976f63579b99168e93bbe",
        "b9ce849fb7fb940ca7413dbb2b42d44730e23338a753b669ed3800ee14407ddf"),
    "toy-d1": (
        "79808b5f1a4b5ab31d30f1f792eccecc4c227a873004adae65f8c5c2ff43b168",
        "f6f3d754986dac5ba60b95b1f8882752aec9035bad20383ec38aa14a9d80aba1"),
    "toy-d2": (
        "fb40c7b3c1cf82122ec171960da34eef7a0f811adaa3dda56b07d74ce7a695ae",
        "145a0d857e796713b6b9798eb00343af5258be39e70c916f13c0f7ccd3c1e71e"),
    "toy-d3": (
        "9a7a74f4fa0eefef6a34dcce92efbc367fbf1a033691dc284b70bb1139f0597d",
        "0eeb7bc646b36601df50da4afbcfcb2d29142a2e7adb43c79834c9cff1a7d0c5"),
    "q80-d2": (
        "4297ff615ee34d95120a434fc86451f266d3d21f1e3c6a18d1cb0d23be40fd37",
        "6811d5d846d0975e0d82b5e7b61aeb1040fc8b9a11c71800a25ea02e74f4187e"),
    "small-beta-d2-f64": (
        "1366107f0aef72188553df42d855c318ce74a2dbfdb480814ee4f81dee577b79",
        "791f12fb0deb5d525ef3e647512cc591489c901092de8440c3ec4abd76d859b9"),
    "small-beta-d3-f64": (
        "642133c709bf0c45fdfc97dd4e6c5991f9f4928d8bf435b1fb3650f56be0f594",
        "5b04aa081878caf4156cd9fa4396e1817938b63d8abb1c752337d6fbd0c8d04e"),
    "uniform-d1-f64": (
        "4efb4b6c851c6cec60cf82f14365c791d4be605aa26f451bdf937c3fc7749c29",
        "6abd50b3268a77d0bfe06eb6883de8676ed800ccf0fb1d12a0a5b438ef49c606"),
    "uniform-d2-f64": (
        "d15e80cb7b1cbc6407ef89af3da424c9977ea447d9401956dd6d3b087d7e7879",
        "6d308c2cb3456940630a2d3f95229fd4e7525ffa208e02ab525ca23c87ade0fa"),
    "uniform-d3-f64": (
        "5ddbf06209207764173a3527992a4059561cfb270add9596a30a2071678bffe3",
        "ddcba026abab98aa5aa435e381eaf09337d87a6589246e2f9894b38bafdd09c0"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, shape, params, b_e", CASES, ids=[c[0] for c in CASES])
def test_golden_container(name, shape, params, b_e):
    seed = sum(name.encode())
    if name.startswith("uniform"):
        grid = np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
    else:
        grid = seeded_grid(shape, seed, zero_blocks=name.startswith("zero-blocks"))
    data = compress(grid, CodecParams(**params), b_e=b_e)
    out = decompress(data)
    assert out.shape == grid.shape and out.dtype == np.float64
    assert (_sha(data), _sha(out.tobytes())) == GOLDEN[name]
