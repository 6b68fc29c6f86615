"""Golden digests of the rejection route and of the Poisson counts.

Each digest is the SHA-256 of the exact bytes an output is made of: the
points of ``simulate_window`` (with its mean), ``simulate_conditional``
and ``sample_location(size=...)``, and the counts of scalar and batched
``poisson``, each followed by a few uniforms drawn after it, which pin
where the call left the stream.  They were recorded before the rejection
rounds and the Poisson counts were made cheaper, so any change to a word,
its order or its transform shows here.  Run this file as a script to
print the table afresh.
"""

import hashlib

import numpy as np
import pytest

from ippp import (
    Interval,
    RateModel,
    RngState,
    sample_location,
    simulate_conditional,
    simulate_window,
)

# name -> (model, window)
RATES = {
    "constant": (lambda: RateModel.constant(2.0), (0.0, 5.0)),
    "linear": (lambda: RateModel.linear(1.0, 0.5), (0.0, 40.0)),
    "sinusoid": (lambda: RateModel.sinusoidal(2.0, 1.0), (0.0, 200.0)),
    "step_dyadic": (lambda: RateModel.piecewise_constant([0, 2, 5, 8], [3, 1, 4]), (0.0, 8.0)),
    "step_off_dyadic": (
        lambda: RateModel.piecewise_constant([0, 2.1, 5.3, 8], [3, 1, 4]),
        (0.0, 8.0),
    ),
    "bump": (lambda: RateModel.from_expression("1 + 50*exp(-((x-3)^2)/0.5)"), (0.0, 10.0)),
    "spike2": (
        lambda: RateModel.from_expression("1 + 200*exp(-((x-0.50049)^2)/1e-8)"),
        (0.0, 1.0),
    ),
}

SEEDS = (1, 2)
COND_M = 300
# past one round of _MAX_BATCH candidates
LOCATIONS = 20_000
# uniforms drawn after each output, to pin the stream's position
TAIL = 4

# scalar means in one stream, then (mean, size) batches on fresh streams
SCALAR_MEANS = (0.0, 0.3, 1.0, 5.0, 17.5, 250.0, 2e4, 7e4)
BATCHES = ((0.5, 1), (3.0, 1000), (40.0, 37), (2e4, 5), (7e4, 2))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _tail(rng):
    return rng.uniform01(size=TAIL)


def _outputs(name, seed):
    make, (lo, hi) = RATES[name]
    model, window = make(), Interval(lo, hi)
    rng = RngState(seed, 0)
    es = simulate_window(model, window, rng)
    yield "window", _digest(np.array([es.meta["mean"]]), es.points, _tail(rng))
    rng = RngState(seed, 1)
    es = simulate_conditional(model, window, COND_M, rng)
    yield "conditional", _digest(es.points, _tail(rng))
    rng = RngState(seed, 2)
    xs = sample_location(model, window, rng, size=LOCATIONS)
    yield "location", _digest(xs, _tail(rng))


def _poisson_outputs(seed):
    rng = RngState(seed, 0)
    counts = [rng.poisson(mean) for mean in SCALAR_MEANS]
    yield "scalar", _digest(np.array(counts, dtype=np.int64), _tail(rng))
    for i, (mean, size) in enumerate(BATCHES):
        rng = RngState(seed, 1 + i)
        counts = rng.poisson(mean, size=size)
        yield f"{mean:g}x{size}", _digest(counts, _tail(rng))


def _digests(seed, name):
    # (what, digest) of each output of ``name`` (a rate, or "poisson")
    return _poisson_outputs(seed) if name == "poisson" else _outputs(name, seed)


def _keys():
    return [(seed, name) for seed in SEEDS for name in (*RATES, "poisson")]


# "seed/name/what" -> SHA-256 digest
GOLDEN = {
    "1/constant/window": "fd088c07b2dd99348d35baaec53d9d7c01b67d309d4aff14f42d62545c531a0c",
    "1/constant/conditional": "bcf9c08a951bea9bc2d03b6ad322b5f12d1c7f1e6f7d91894e3edd367b9d736c",
    "1/constant/location": "600b3c2f95ac64df2d94934f4092728d01c015c7cc90f48dbbe3eb738f2cc904",
    "1/linear/window": "01c0d1f9ff18ae521ba8088e32e93030e06ef4d3482b70e0818ece1d63c83709",
    "1/linear/conditional": "e2be5b971b6a35031f0d9fc7a5b8c60fcc2cfe642216939df9002ee57b50e217",
    "1/linear/location": "104b4a4d3620f6141d31c08cf8bf70d8e8ff7debbbde062976d8d3e2d3caa5a7",
    "1/sinusoid/window": "de2a4d75478b4fddf69a4ebd8a1c04fda59d1f1b8385eb941a93f4f71efc6b17",
    "1/sinusoid/conditional": "a744bdeec0c389973c8b364807c0c28550f19002422ab1de066e59a5bc4934d9",
    "1/sinusoid/location": "2ac4aca4944a739460d5f22e8395888fcc29049e09c508b2b7ca6fc015ee414c",
    "1/step_dyadic/window": "aa806b29afb8a68d09d95c1a33cc7f896276f4910e1e9a7fee9abd936d32f286",
    "1/step_dyadic/conditional": "2b781d4c3a6f3dd91e693090d2afa7d8bc71a04a7611d2292c28fdc8121fc201",
    "1/step_dyadic/location": "e2eed7b1bd295734d4a29aafdcfb44a5877ab8aef181fc49e711fd91b547c337",
    "1/step_off_dyadic/window": "703ed1dd9ff82482d06108b0fe191a786f211b6f92755c2f7dcf4c583ff8ebf7",
    "1/step_off_dyadic/conditional": "b21b0aeb712a07db1ad2d4e250a4e22e41384317b32d1e64a6468a907722e76e",
    "1/step_off_dyadic/location": "26425bf6c2104af97d4e7fd0d52be24edc0fa6d5f1620fbadef6c1f1c24f8513",
    "1/bump/window": "e5e1ff6dc8272c44f8c59861a870e849b845adf9072c41d647f402bfb2af6977",
    "1/bump/conditional": "253f690593e63fac939b2809be7416798a4851e4f05e52a32dc661f94d098ad8",
    "1/bump/location": "319cbd307a600239ffe503f06d6f8aad206a4a70a946b740fe560feda5df977e",
    "1/spike2/window": "1387d1816d69855145c5d57267c9d6cb3019de8db475054c2ee2f2e04935601e",
    "1/spike2/conditional": "4c8d17eb7ec6656c37eb3f7a152123f12563919cfc24b97681e49b5d0db12ef6",
    "1/spike2/location": "25728249e45e5df2af3ac14b46824fa42322d62c796163af528dfefc3cd27f81",
    "1/poisson/scalar": "7735edcab001b01110f1e15bfc8f41506952dcba3f180163328b307c9350df09",
    "1/poisson/0.5x1": "c3907afca980cc42fc777165d9f7c17054d60a5e554f1a90d348fbf9e91a35d1",
    "1/poisson/3x1000": "45ae48967329bfe7dd2f7709c66d78d38b6cb558d765f70d92a02c19603a7728",
    "1/poisson/40x37": "94d71b7382309f4daf94b4dbc5e9e8c29c9a9fe880d5545df022fc4117139be3",
    "1/poisson/20000x5": "11962b9c15138f702170045a41ebcda2296bf22db6552072bd52452bdf712371",
    "1/poisson/70000x2": "b059416191b67670120d2c41ead78eed78385716627a30bb93023efa6497d4e1",
    "2/constant/window": "e06cce6ab147035dd194a95adb09142db0f64fe20cba1aa961064be1c16107ec",
    "2/constant/conditional": "db1904bcf96e513313f6632ee3f759affb848722bed9f7b4d729458a42f1fe97",
    "2/constant/location": "8fc7593145d045d0184c845089fe214559ae20dc32991a1580c9f973319cefd0",
    "2/linear/window": "dc435cf680d32c2f339fdbf019dd0ab843b672eeb9550e25c76f7d41cfe76cda",
    "2/linear/conditional": "6ca85b05b38906aef065c221abf0a0ecfa63836150b85598b2e3ad57c3223c69",
    "2/linear/location": "31819d9f8e0263d09ffcea58e79951a3bb607148766aadffbd271b9334fa1b1c",
    "2/sinusoid/window": "b3143b788377dcc2355dcaca286e517357b587cc66b891ecd1c1b8ef0627cebb",
    "2/sinusoid/conditional": "28cce981999a413fdb6144a20e79d55b2c834953cb7235b4e416e79cd388192a",
    "2/sinusoid/location": "c8d19b23fd91f2664520cc346b36552521e1de75e5f1e5012f4e6663ebbdb140",
    "2/step_dyadic/window": "121854351383c00f3c1a4541dd7625486da3d866084035fdc96a0b0e8b84df31",
    "2/step_dyadic/conditional": "ff7b0f8165802cf9c7e1184c907fbf45d5f1d4bd6b6c6c092adc6c22737eff11",
    "2/step_dyadic/location": "caecd74af49fdad09312aebd5605ab511c74c3101b09815e4d117802aa3a19c2",
    "2/step_off_dyadic/window": "72cd491695d316666f640e0a6d5c95647a7fd9b35546b9953761e1f557c490c2",
    "2/step_off_dyadic/conditional": "f1b764dc5238d3db54ac12e515d10eb0adaa62ab7e71b269d84d3ea03b30deac",
    "2/step_off_dyadic/location": "9cd72ceb0195b21e39ea2ed210a5f22e32b70d0881d8b809fffc2fea316db83b",
    "2/bump/window": "449d134528c309f0c8f70d5bd2454fdeb1a37060a3275a44ce93927f6c626614",
    "2/bump/conditional": "592935c901592baa30b6bf3c9f2d6b436e5e1cc898e571fc87d04e14f0382093",
    "2/bump/location": "0a64cae70a0f098ed6c0637a5dcc9bdf29894f70570fbb3ec0ffd9c030af1b19",
    "2/spike2/window": "3f821ef9d5e7db448add1cfc50396d6e42ae5623d5b4645192521a53d8784465",
    "2/spike2/conditional": "f5d3c03a189afcb632e5a19ea8ca77335c60ec26808d48b3f2972eb5a77f963f",
    "2/spike2/location": "c8073bdd9751ae13325990115975ec4a6c2f9a4611d3df21b0311680578bfa0a",
    "2/poisson/scalar": "98484dc6548fb87e0ae7f515b1ab0127fa90156e4401f7721edb8ef2a86dbe1b",
    "2/poisson/0.5x1": "ef603e9b1f34bf60283c629420cd20f63357242c6c1512fc0ef734d32c6f5cdb",
    "2/poisson/3x1000": "dadbcb85d1c2c73e0eb654cbc34be0bed68dc39de1e07428b0baa10f3909797a",
    "2/poisson/40x37": "d8cc80d961570fd3a68091e2f86a9c7d369a0493618805ba3b7b95d9d4d6c53b",
    "2/poisson/20000x5": "7b3699595616f1f5d211795e24ec9c0c474648a0e3e6f075fcd67b57d6832088",
    "2/poisson/70000x2": "32d710384f259248a5319340d53eb41e88d7c1fc22cde49e31441accf58bc3e6",
}


@pytest.mark.parametrize("seed,name", _keys())
def test_golden_digests(seed, name):
    got = {f"{seed}/{name}/{what}": digest for what, digest in _digests(seed, name)}
    want = {k: v for k, v in GOLDEN.items() if k.startswith(f"{seed}/{name}/")}
    assert got == want


if __name__ == "__main__":
    for seed, name in _keys():
        for what, digest in _digests(seed, name):
            print(f'    "{seed}/{name}/{what}": "{digest}",')
