"""Golden digests of the integration route's outputs that keep their bits.

Each digest is the SHA-256 of the exact bytes an output is made of:
``integrate`` over a few windows, R and the checkpoints of the public
origin-0 tables (default and ``span=``), ``inverse_many`` on both, and the
n-th point queries (``sample_nth_point`` scalar and batched,
``sample_nth_points``, ``nth_point_density`` and ``nth_point_mass``),
each draw followed by a few uniforms that pin where it left the stream.
They were recorded before the time-change sampler and the location CDF
moved to tables anchored at their window, so they show that the move
changed no other output.

The digests of the window tables' outputs (``sample_path_time_change``
points and mass, ``location_cdf`` and ``order_statistic_density``) and of
a wide ``sample_nth_point`` batch per query were recorded before the
piece store moved from one row per piece to one column per piece.  The
sinusoid's window sits far from 0, where the default table's pieces are
wide and inverse lanes take more than one round of the root solve.  Run
this file as a script to print the table afresh.

``expected_count`` reads the window table's mass, which must be
``integrate`` over the window bit for bit, on each rate here and far out.
"""

import ast
import hashlib
import os

import numpy as np
import pytest

import openblas
import test_rejection_golden

from ippp import (
    CumulativeIntensity,
    Interval,
    NthPointQuery,
    RateModel,
    RngState,
    cumulative_intensity,
    expected_count,
    integrate,
    location_cdf,
    nth_point_density,
    nth_point_mass,
    order_statistic_density,
    sample_nth_point,
    sample_nth_points,
    sample_path_time_change,
)
from ippp.quadrature import DEFAULT_TOL, _window_intensity

TESTS = os.path.dirname(os.path.abspath(__file__))

# name -> (model, window)
RATES = {
    "constant": (lambda: RateModel.constant(2.0), (0.0, 5.0)),
    "linear": (lambda: RateModel.linear(1.0, 0.5), (0.0, 40.0)),
    "sinusoid": (lambda: RateModel.sinusoidal(2.0, 1.0), (300.0, 350.0)),
    "step_dyadic": (lambda: RateModel.piecewise_constant([0, 2, 5, 8], [3, 1, 4]), (0.0, 8.0)),
    "bump": (lambda: RateModel.from_expression("1 + 50*exp(-((x-3)^2)/0.5)"), (0.0, 10.0)),
    "spike2": (
        lambda: RateModel.from_expression("1 + 200*exp(-((x-0.50049)^2)/1e-8)"),
        (0.0, 1.0),
    ),
}

SEEDS = (1, 2)
# points of each R digest, and targets of each inverse digest
POINTS = 257
# uniforms drawn after each draw, to pin the stream's position
TAIL = 4
# (anchor as a fraction of the window, n, direction)
QUERIES = ((0.0, 1, "above"), (0.25, 3, "above"), (0.75, 2, "below"))
DRAWS = 50
# lanes of each wide n-th point batch
LANES = 10_000
# (k, m) of the order statistic density
ORDER = (2, 5)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _table(ci, lo, hi, seed):
    """R on a grid of the window, the checkpoints the grid grew, and the
    inverse of seeded targets between R(lo) and R(hi)."""
    xs = np.linspace(lo, hi, POINTS)
    rs = ci(xs)
    ts, r_at = map(np.array, zip(*ci.checkpoints))
    ys = np.random.default_rng(seed).uniform(rs[0], rs[-1], size=POINTS)
    return _digest(rs), _digest(ts, r_at), _digest(ci.inverse_many(ys))


def _outputs(name, seed):
    make, (lo, hi) = RATES[name]
    model, window = make(), Interval(lo, hi)
    width = hi - lo
    masses = [integrate(model, lo, hi), integrate(model, lo + 0.3 * width, hi)]
    masses.append(integrate(model, lo - 0.5 * width, lo + 0.5 * width))
    yield "integrate", _digest(masses)
    # fresh tables, so the checkpoints hold what these queries grew alone
    for what, ci in (
        ("default", CumulativeIntensity(model)),
        ("span", CumulativeIntensity(model, span=window)),
    ):
        r, checkpoints, inverse = _table(ci, lo, hi, seed)
        yield f"{what}/R", r
        yield f"{what}/checkpoints", checkpoints
        yield f"{what}/inverse", inverse
    # the public cached tables read the same R
    for what, ci in (
        ("cached", cumulative_intensity(model)),
        ("cached_span", cumulative_intensity(model, span=window)),
    ):
        yield f"{what}/R", _digest(ci(np.linspace(lo, hi, POINTS)))
    # the window table, through the time-change sampler and the location law
    rng = RngState(seed, 5)
    path = sample_path_time_change(model, window, rng)
    yield "path", _digest(path.points, [path.meta["mass"]], rng.uniform01(size=TAIL))
    xs = np.linspace(lo - 0.1 * width, hi + 0.1 * width, POINTS)
    yield "location_cdf", _digest(location_cdf(model, window, xs))
    yield "order_density", _digest(order_statistic_density(model, window, *ORDER, xs))
    for i, (frac, n, direction) in enumerate(QUERIES):
        query = NthPointQuery(lo + frac * width, n, direction)
        rng = RngState(seed, 10 + i)
        one = sample_nth_point(model, query, rng)
        many = sample_nth_point(model, query, rng, size=DRAWS)
        one = np.nan if one is None else one
        yield f"nth{i}/draws", _digest([one], many, rng.uniform01(size=TAIL))
        batch = sample_nth_point(model, query, RngState(seed, 50 + i), size=LANES)
        yield f"nth{i}/batch", _digest(batch)
        rngs = [RngState(seed, 100 + k) for k in range(8)]
        lanes = sample_nth_points(model, query, rngs)
        tails = [r.uniform01(size=TAIL) for r in rngs]
        yield f"nth{i}/lanes", _digest(lanes, *tails)
        xs = np.linspace(lo - 0.1 * width, hi, POINTS)
        yield f"nth{i}/density", _digest(nth_point_density(model, query, xs))
        yield f"nth{i}/mass", _digest([nth_point_mass(model, query)])


def _keys():
    return [(seed, name) for seed in SEEDS for name in RATES]


# "seed/name/what" -> SHA-256 digest
GOLDEN = {
    "1/constant/integrate": "df6e3e85c323365e348e951395a8aa8e0c741448f980b0a8bfa124dc7110afcb",
    "1/constant/default/R": "e80b55a03a52a10e783af806b5314c5dc2aad6cbfca3e613c9e0019e70a85fcd",
    "1/constant/default/checkpoints": "3f27661526acfe025c3fb207605d4db53203360b88452e9a0aa2d531f0130336",
    "1/constant/default/inverse": "d942ce3ed194f9a2501de1ee77adb498eeaaa96ca653c2e13ffdeef0d0efb5bf",
    "1/constant/span/R": "e80b55a03a52a10e783af806b5314c5dc2aad6cbfca3e613c9e0019e70a85fcd",
    "1/constant/span/checkpoints": "4c7ac96b6c8fc0f9892edd9e22ed876ee45eb44a5ee9bb2965f69e082981b843",
    "1/constant/span/inverse": "d942ce3ed194f9a2501de1ee77adb498eeaaa96ca653c2e13ffdeef0d0efb5bf",
    "1/constant/cached/R": "e80b55a03a52a10e783af806b5314c5dc2aad6cbfca3e613c9e0019e70a85fcd",
    "1/constant/cached_span/R": "e80b55a03a52a10e783af806b5314c5dc2aad6cbfca3e613c9e0019e70a85fcd",
    "1/constant/path": "098590f4de58213af7f9e27a48f79a2289ac43b5cb8769185fc2d239cb63d3d2",
    "1/constant/location_cdf": "207c00797ce268e6c38fe336af84fcf0c01ff8761ad609bbe0231b3b4f126a3d",
    "1/constant/order_density": "5ae725d0d4be11ac3f4910caa0f46fbe7338bbea004f339db28409923ff97d91",
    "1/constant/nth0/draws": "fe5573fa5a302344f33a5264739c39c927797a68b18ba6d380c04db9bd002562",
    "1/constant/nth0/batch": "6285d247d8490bf961c53d1b4f935cafcb9078b5f8eaa22af040b5c425050d68",
    "1/constant/nth0/lanes": "b67e52574b3d7608f31ea57b83f91f9d6ea8872745fb56414e7c5b992dd0cc36",
    "1/constant/nth0/density": "87a78ffc4bdde9ab39f0054d664a238e53da9dca3e1ed4b24f4c68534165da11",
    "1/constant/nth0/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/constant/nth1/draws": "24c3e1e66cd43dcc1c9f659ae92d4ce9ed7c497940fd4c5e04765ecf259c7bbf",
    "1/constant/nth1/batch": "c5750e82d73c327e0d5477c1da2b9dc6a5cca677316e97edfd70c660fa90dc9e",
    "1/constant/nth1/lanes": "2516ee7e4301820738d82f7f30ff6a75093080bc0a9eb03412a179fd45ae66d2",
    "1/constant/nth1/density": "c1ceb7a10abdc9d83275160d89c61f34f40065de16f0637a344d8b7066a31a03",
    "1/constant/nth1/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/constant/nth2/draws": "a0a88111eeaa708b1499990a00b480432112735b70fd347365a80201510c004b",
    "1/constant/nth2/batch": "e117b6ffd151661b124c0321845458ee28d012a8128a726aa1b340a241147e64",
    "1/constant/nth2/lanes": "6a51420ee1ab88ad2ce7512df6533e285fc37d72e47585dc0c4468963daf126b",
    "1/constant/nth2/density": "51f8b231e2962c6aff6ce574712129cea50c7f305ad49cbd3d70240107a05a3a",
    "1/constant/nth2/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/linear/integrate": "b469864af788c575ce5fcdaab9206abe5b437ccfcfb012393d0e9635980f7dab",
    "1/linear/default/R": "98ad9274d3a70fd7865107c924a3dd661757e9b09b7f7e60ddee915db0d87202",
    "1/linear/default/checkpoints": "49de293847c47741ab95eb62dfef29bfaee3fa9e53e7273f409ad356000481d1",
    "1/linear/default/inverse": "8e6c54cecf72a9c51204b0684bf9a6b717872a3791d34ac49f1e50a872d7c178",
    "1/linear/span/R": "98ad9274d3a70fd7865107c924a3dd661757e9b09b7f7e60ddee915db0d87202",
    "1/linear/span/checkpoints": "2b1df33765a60061375f980764f4a2948095a1b451ccb31e7db93191bf9529b4",
    "1/linear/span/inverse": "7187e7d3720f0799bf83abf351a62831d0373a10dfa2fbbd4b98e827def63006",
    "1/linear/cached/R": "98ad9274d3a70fd7865107c924a3dd661757e9b09b7f7e60ddee915db0d87202",
    "1/linear/cached_span/R": "98ad9274d3a70fd7865107c924a3dd661757e9b09b7f7e60ddee915db0d87202",
    "1/linear/path": "ba9559de38b5c7380fc7a88619bf475f9f06f026a83850aaf465f51f5143c35a",
    "1/linear/location_cdf": "ee4a9ac10e3c774bc4636dc9b26fa78bf705c89a2d223fb6ad631037ccebdbed",
    "1/linear/order_density": "75c74ce2f3f41b30174d079bf851bb296ec7602b884388e97d0c86f32625c2c2",
    "1/linear/nth0/draws": "0c6f71b44cbc937f8c072401ad5445a3ac586b33c8851d21de24b0115d1ba2f8",
    "1/linear/nth0/batch": "6c17b9777032c41bc1a928bad7a090fa68ecde9892f947faec048023671f4175",
    "1/linear/nth0/lanes": "f753467434596c4d724584b2392842e688172d115a49f7622e5edb3bbc3fad70",
    "1/linear/nth0/density": "f3c954461d4730cf463edbbc5ba420d28c60d92b9cd45885e717ae8e446aedd4",
    "1/linear/nth0/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/linear/nth1/draws": "7e9020d4dfb7ea4660691c8cc265dbb190ee9bc3b864cc42f708023e1884754f",
    "1/linear/nth1/batch": "1511f71ca7bb822fc29d5fdcbfb5fdc34dd3bab886ca03a7f146b9bc7529ea77",
    "1/linear/nth1/lanes": "3aa93bbe58ece95ba26414e4a54a1266a0314f227dc623a25e6392c55dc6d5fa",
    "1/linear/nth1/density": "769614064863d19dd4570d0542e6a4442cf1eb7f1d5fd2c230883034058ab75b",
    "1/linear/nth1/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/linear/nth2/draws": "cd68c84c46515195977384406bd68bae47ef64ac08d419a0f0cb7de8fbfa9e2b",
    "1/linear/nth2/batch": "b54683f0cf325b0564704ae7bc06ca86e2aa5b9a5c8fba0d30ce717a36f8a42c",
    "1/linear/nth2/lanes": "19819fcb74836d5c8be09d641ae8a17a06a4f09524dcb0a5d59ab0e0bc77bbf9",
    "1/linear/nth2/density": "950993b412de89dc4aad561e6bf6db2963c885f9c0ca04a27874ae2d5d84700c",
    "1/linear/nth2/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/sinusoid/integrate": "ef49d97a6f2c35c2ed3972cb8addf846409ec06235c9782f2e1b0c7c44e182f2",
    "1/sinusoid/default/R": "f50cda82d5298e6b65ed19a2980f830acefeb2e8f0294d0d5281f4edcfd9457b",
    "1/sinusoid/default/checkpoints": "b2a0e929c2d75149d8f0d7d40266b6502e267dda6898fe12ed0a4f6a05da7f2b",
    "1/sinusoid/default/inverse": "bcd90bb4f80f6af464bb49d051dfcf26d1bdc42aa044cbc05690f591d7bec962",
    "1/sinusoid/span/R": "bd9612102ceb05828770088048dff3c65818068dfc8ca81909e221fcaf832c23",
    "1/sinusoid/span/checkpoints": "aac0ae3eea3a11d416a5307b719f5cb529ef3b7656851085a85947d2a654a9e6",
    "1/sinusoid/span/inverse": "137039b95d3fe83c2d75dcad2f3d8872a014e8b642c97c00aca2a7d05de9cec4",
    "1/sinusoid/cached/R": "f50cda82d5298e6b65ed19a2980f830acefeb2e8f0294d0d5281f4edcfd9457b",
    "1/sinusoid/cached_span/R": "bd9612102ceb05828770088048dff3c65818068dfc8ca81909e221fcaf832c23",
    "1/sinusoid/path": "ca18941bb0b0f013234d36863653bc83a2bb3e2cb1d198b892bfccb54201dcb7",
    "1/sinusoid/location_cdf": "38f718941a237c1960562c7c7dc4cb0d87bf32f6c7347e455b3934c8c71cc952",
    "1/sinusoid/order_density": "a179da99078aa3c661b04de21b85fd26f488a83cab32af5662590553ee91ae5a",
    "1/sinusoid/nth0/draws": "e62bffdf401c966099c5f26c74789552a0b48804c6ea2216c23c7ee33a6426d2",
    "1/sinusoid/nth0/batch": "f3c8f208ad64216eea0581fc29a84a050aef140553835a7e0a05ac1cda2a43cc",
    "1/sinusoid/nth0/lanes": "3fe0ba93968ef42bf17791b39c6f99c1aa23ba3c57e4cd1b029b5de0201fb5f5",
    "1/sinusoid/nth0/density": "9f3ed35a02f580ef033a6cb1c7816f86673947efe98d71e024cc83d41eb350ce",
    "1/sinusoid/nth0/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/sinusoid/nth1/draws": "ae933a5c9fd0937833f3b1adb6c4ee26dedae9bd5b9cd3fbba0fe03ace954d52",
    "1/sinusoid/nth1/batch": "23776c19a0ad58defcb5020710c2865ac9e06adae11a2b1d7ecc2c6c98a83b28",
    "1/sinusoid/nth1/lanes": "4eba368695852634a54c63d432e0e05a8bd6563f0515bd68f49306e5ecb229eb",
    "1/sinusoid/nth1/density": "f69683fe6b8a5dcd5e3459163525dd7b9eb22ba0a33da0937cc760d54ccce51a",
    "1/sinusoid/nth1/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/sinusoid/nth2/draws": "9eb4a42c4168de93d770067b290299b302d2d90efbbc51fb2f97dd7153b0a955",
    "1/sinusoid/nth2/batch": "d27b42174092c5e6748614c483261377b3188e95ee78983e6cd101072fc15df7",
    "1/sinusoid/nth2/lanes": "d3993f6c5fbfaa3f2f59d3bfc0530d706e7ccc229d540b4315c069db0279d3aa",
    "1/sinusoid/nth2/density": "b235129b02467b3f3753cfeebdcbceb441459eaa0eb85bba424fee989ff9d745",
    "1/sinusoid/nth2/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/step_dyadic/integrate": "1b0fc0e08c6a0fee20ef024e9fdbb219839fb304ec0ac4b985ce0afc1623154e",
    "1/step_dyadic/default/R": "634068c7dcaef24d3ccfef5c15ea18a7b2b410991ad3fa6591300c16529b442d",
    "1/step_dyadic/default/checkpoints": "1223a28e59f8268160230e1391db2d9c2dd2c54b830c45aa2a5d1eaa8d545657",
    "1/step_dyadic/default/inverse": "d9b3eea4e08fa16ae8fa6d565b050b4b9db4ebe294ccdc1ba5fb89d87a54b8d6",
    "1/step_dyadic/span/R": "634068c7dcaef24d3ccfef5c15ea18a7b2b410991ad3fa6591300c16529b442d",
    "1/step_dyadic/span/checkpoints": "f35708485f27fca8bf9448722eaab37d3c0c293603c019127e0ef68ffc6ea870",
    "1/step_dyadic/span/inverse": "d9b3eea4e08fa16ae8fa6d565b050b4b9db4ebe294ccdc1ba5fb89d87a54b8d6",
    "1/step_dyadic/cached/R": "634068c7dcaef24d3ccfef5c15ea18a7b2b410991ad3fa6591300c16529b442d",
    "1/step_dyadic/cached_span/R": "634068c7dcaef24d3ccfef5c15ea18a7b2b410991ad3fa6591300c16529b442d",
    "1/step_dyadic/path": "662c2c7456aa200880f63450552768aa20392f168ddb83e0d9e58dabf9126219",
    "1/step_dyadic/location_cdf": "d52621b88002de50dccbca055a2c163e8f7bf3196cc75d966b0b26e49dc551c0",
    "1/step_dyadic/order_density": "c2886b13702c13b8e1d726d98bcfb3f915c05df687bf383c8c29505f2fc94891",
    "1/step_dyadic/nth0/draws": "45e06cc6d83c7aa6dbfb516d6b1019cff1b21c1b3e37aa2dea375bbcd6e8c7e1",
    "1/step_dyadic/nth0/batch": "835a350858f2349374b80eb7959a8d80c4e4ae9d7468e2ea56a62fa4611f3041",
    "1/step_dyadic/nth0/lanes": "00babb3bad8ff7ef1772b58158116f7514bdbda9cecb1dba8a55aa4b02085d63",
    "1/step_dyadic/nth0/density": "2cdea3410588c7124a9c49329e32bfc04959fba0557568f151d76902da2979dd",
    "1/step_dyadic/nth0/mass": "7805945dae691ed4e960e54b65278d0d130dc66567ca03ac9f17b565c8103023",
    "1/step_dyadic/nth1/draws": "8635f931e9c6667c272fe0651cfdd765f6da7556ef14e8b54b1ad1bb159f833a",
    "1/step_dyadic/nth1/batch": "f655428d0833441442d9a4c41f1045fe999ba239a5d8783219d3c66aca237446",
    "1/step_dyadic/nth1/lanes": "957f7d497e73c9003a8000087c916ba1031785e3abbee78b132ed032dd36cc3c",
    "1/step_dyadic/nth1/density": "06814b6f3b103b2004cb7249d4b1f7405d81ef6d0ba6e0e29584f9dc159975b8",
    "1/step_dyadic/nth1/mass": "983467b665e45b072d1e57332cbfeff3e116e8571fd09fd41e4a811bd74f3106",
    "1/step_dyadic/nth2/draws": "ef926b4b283e65b080b157da7fb8e315364d582ae70c152ecb4f4e02b3207392",
    "1/step_dyadic/nth2/batch": "6b4665afae42600c5b9cf02663501114f2cd86a30c53a079246d7aded5b12bdb",
    "1/step_dyadic/nth2/lanes": "ee34c870cace4dfded9d9f99e8900acfcfd272df5dc69f8c3791c8bcb4cd4671",
    "1/step_dyadic/nth2/density": "95bc279e00ca4295790944f4156ff0eab816ee34ab8a0e352bc696328d634194",
    "1/step_dyadic/nth2/mass": "aae8018e0046b182524e8898669f0d0222f8425ca080f9287044e06d2a3c6dd2",
    "1/bump/integrate": "d1b045a56b686ee08f51b5a30b0f6988ee21fe6b623c973313dbf6889e9397ea",
    "1/bump/default/R": "0fb0609200c2808e786293173cfe33a048cb7dc7e60fbf2b4e7397ce6502f958",
    "1/bump/default/checkpoints": "b10f33c2a63c591ac3224aca9ce6fdac87fb44ec05e1df1864edb21a309eca06",
    "1/bump/default/inverse": "d96355a009aa55adfec8950bb26e05b8c63a30dc8748ecdabda40afe782a55ff",
    "1/bump/span/R": "0ada87a8ffd5b693d523ee53b85650d5e076c9dd378992fec0f600e620266118",
    "1/bump/span/checkpoints": "d7e9aaf424548400f8c39b7540f13fec34e692e5946fa6a75c18f628e5409228",
    "1/bump/span/inverse": "e4a3706f78bacb52b41a990bbee0c7995c190aee1b8be44f2b4a5d5541d1ce90",
    "1/bump/cached/R": "0fb0609200c2808e786293173cfe33a048cb7dc7e60fbf2b4e7397ce6502f958",
    "1/bump/cached_span/R": "0ada87a8ffd5b693d523ee53b85650d5e076c9dd378992fec0f600e620266118",
    "1/bump/path": "c86aa256588631e75cc42bb09682ccb24b46c37e5b7ac8831d8f174a9ecf0808",
    "1/bump/location_cdf": "f36dcc7d288a762005e07ef4df2e10fa10267540b48ca68abb1d6d4a2fa7ff9b",
    "1/bump/order_density": "cc2eae65f334d52fb2adec7fa54aedf91aa20aaa1ec9b545b2d4dc37873eadad",
    "1/bump/nth0/draws": "8f724e766b886a1794a54811ec306b120cc7bafd0fbc1bce0b9aee8ab9d117fa",
    "1/bump/nth0/batch": "908674ab1090d880de508af9c88320a6f31c64301258a0f92c144fa89f044833",
    "1/bump/nth0/lanes": "424e2f5b10c42fe022968a6bbe2f41c60391c9ee82a6c8f38a2d17078650b55c",
    "1/bump/nth0/density": "9b4f101f724073ac41b0112edc8c0d7c86910da2f253928a126d3b75c474f4b2",
    "1/bump/nth0/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/bump/nth1/draws": "db5fee27b7e56df982cb691d9f7c835def0d339a702a9d9d1410925393b7d230",
    "1/bump/nth1/batch": "96a47d7d4888ede0cf29c2493851f21d802c62e21362b457b4746308a011cefc",
    "1/bump/nth1/lanes": "128ebc22afe8c6ed8d55f76477bc5631e2efcfe7db5e2b66b493efb6da010d38",
    "1/bump/nth1/density": "58a7a82bbd67a376934164779aee5551be24dbddbc347ae5d495bcef53f3c132",
    "1/bump/nth1/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/bump/nth2/draws": "1b7b5e0037782ff4ae9f0bf2ecd165e01803a9ec9921dbc7dfcec64aa31341b8",
    "1/bump/nth2/batch": "acf80a396ef1933610c629d6702688ceacc1a9a53e2adc6dc6c9e7beb674465f",
    "1/bump/nth2/lanes": "7ff381e0df50fb037d20ea6507fc901225ae0908d2b50fb7ef53298a8b815c26",
    "1/bump/nth2/density": "dc107a5afb28fb70255df6a862205d429ce8849b85706ec4e903654e678911dc",
    "1/bump/nth2/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/spike2/integrate": "9124cd5b9e9539d68bf92f6ab4856c16eb2c36918b4608701ed61da7aa462ae6",
    "1/spike2/default/R": "3a95f2e13dd143fd264db5f5850e52804e4292cddbc45cd362f1a18f69fc0e69",
    "1/spike2/default/checkpoints": "6165b4fc5736932ec1022df0e95686df429240f495f08d70c3948a427acbe7b4",
    "1/spike2/default/inverse": "790a3a1e78c4cdeec0e1a29d742642c8c02da1e8e19c102f77266bbb3274079e",
    "1/spike2/span/R": "3a95f2e13dd143fd264db5f5850e52804e4292cddbc45cd362f1a18f69fc0e69",
    "1/spike2/span/checkpoints": "6165b4fc5736932ec1022df0e95686df429240f495f08d70c3948a427acbe7b4",
    "1/spike2/span/inverse": "790a3a1e78c4cdeec0e1a29d742642c8c02da1e8e19c102f77266bbb3274079e",
    "1/spike2/cached/R": "3a95f2e13dd143fd264db5f5850e52804e4292cddbc45cd362f1a18f69fc0e69",
    "1/spike2/cached_span/R": "3a95f2e13dd143fd264db5f5850e52804e4292cddbc45cd362f1a18f69fc0e69",
    "1/spike2/path": "fb9eb1bc7c37b58b70772da34c71c66898ad28e1b38173f4dcd157733fb77671",
    "1/spike2/location_cdf": "56aad4e95d5334c5ce8a2aba549fb5bca331dd1067328339aef0e41125b05515",
    "1/spike2/order_density": "11bab0b81d5b8b959fdbf1f281b8b56d603b8b890a71ad615f4e35186b0c6931",
    "1/spike2/nth0/draws": "13c963df68e91ccb04f17ee7723b42736ecc5d7b841287594d7e35f667cd0bee",
    "1/spike2/nth0/batch": "878ed10b1b4c76d077044812aedb96d993f664eb5ce757eec45e00ef8ff2f1b4",
    "1/spike2/nth0/lanes": "902d7d16470262c003d49da60d8b106ce6cbb1f21d5b8e7402462d8f8bc63f7d",
    "1/spike2/nth0/density": "5a9a827b1719dd641de6f5dc5979e877d227648c931c3d020c106047751682a0",
    "1/spike2/nth0/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/spike2/nth1/draws": "0282772155e9fc881c59410a0c7b201f1cfb813dc9d4964c1b9d876fc65e19fd",
    "1/spike2/nth1/batch": "e0a150913ea3f1176a624285472ddba061e4cc42d185fce5b4a8421266ed514e",
    "1/spike2/nth1/lanes": "33b0257ae87cafb0617bf3c3212dab9619fbf0114c72d189c58f179edaf179e0",
    "1/spike2/nth1/density": "f1f3f5aba26201f9735f767b1ec9796f4c7529108085256ffd522d2727bf80dc",
    "1/spike2/nth1/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "1/spike2/nth2/draws": "b7d4a94a8f20f187e8ae67021255a347b3b4d97663b552499e382007e18fc9a1",
    "1/spike2/nth2/batch": "49d053c3b9d440b385d33eabda7875c7f7335308c78f161478997f260479db75",
    "1/spike2/nth2/lanes": "81610a60791c5d9e3bfe4fa983ef5f4849d453f83364778d27f99279af3c517a",
    "1/spike2/nth2/density": "610ff701b98a714eb3e239d43cb2d9dbd0b43eb8f03f42d3d30e02faddf4c9a8",
    "1/spike2/nth2/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/constant/integrate": "df6e3e85c323365e348e951395a8aa8e0c741448f980b0a8bfa124dc7110afcb",
    "2/constant/default/R": "e80b55a03a52a10e783af806b5314c5dc2aad6cbfca3e613c9e0019e70a85fcd",
    "2/constant/default/checkpoints": "3f27661526acfe025c3fb207605d4db53203360b88452e9a0aa2d531f0130336",
    "2/constant/default/inverse": "ca4259a7aee818250835dfc8d276146c528bcfa2f6b2781f6e54297247099fac",
    "2/constant/span/R": "e80b55a03a52a10e783af806b5314c5dc2aad6cbfca3e613c9e0019e70a85fcd",
    "2/constant/span/checkpoints": "4c7ac96b6c8fc0f9892edd9e22ed876ee45eb44a5ee9bb2965f69e082981b843",
    "2/constant/span/inverse": "ca4259a7aee818250835dfc8d276146c528bcfa2f6b2781f6e54297247099fac",
    "2/constant/cached/R": "e80b55a03a52a10e783af806b5314c5dc2aad6cbfca3e613c9e0019e70a85fcd",
    "2/constant/cached_span/R": "e80b55a03a52a10e783af806b5314c5dc2aad6cbfca3e613c9e0019e70a85fcd",
    "2/constant/path": "7b8d617291764afd408539609f8e28bb2e2786aaf7f8c661c1bb692f1a85848d",
    "2/constant/location_cdf": "207c00797ce268e6c38fe336af84fcf0c01ff8761ad609bbe0231b3b4f126a3d",
    "2/constant/order_density": "5ae725d0d4be11ac3f4910caa0f46fbe7338bbea004f339db28409923ff97d91",
    "2/constant/nth0/draws": "4642125f126532e16da1435c8691bc0844c19b40db03b7082ff4618df3cfc02b",
    "2/constant/nth0/batch": "fb142be7e63a5884ff394a6132ef88623f74f4005e8f84f3150d4b8c614465c1",
    "2/constant/nth0/lanes": "e410718523b3b4e024c091c77d1199a377b62e198e53a501c679f0f1ed7293da",
    "2/constant/nth0/density": "87a78ffc4bdde9ab39f0054d664a238e53da9dca3e1ed4b24f4c68534165da11",
    "2/constant/nth0/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/constant/nth1/draws": "ea90e1867b8c57f1373ef48d7f6fe266f133782b2f6ed4eaad93f2abc5b82ab8",
    "2/constant/nth1/batch": "9689fa881e56af1b1e37fe566484399e6fc2bbcff58f7c1e825e0adaa35717e9",
    "2/constant/nth1/lanes": "a93bd2911f47b16d7b12cf8a9258fefc87b13d56e6728e93810a2cfe68126470",
    "2/constant/nth1/density": "c1ceb7a10abdc9d83275160d89c61f34f40065de16f0637a344d8b7066a31a03",
    "2/constant/nth1/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/constant/nth2/draws": "3081deb9af4d1597cf99ae81bb6119279e6d8ebe23be99baa91cc8a64e09d60e",
    "2/constant/nth2/batch": "445bec9803e48a35b5d19f594661f0646bf23a7a03f60ac5a363daa51fd48a1f",
    "2/constant/nth2/lanes": "6dc4929ed7419f6a8c63e0726fef635c0a3d9c0bcfd0bcc77d1743a518733739",
    "2/constant/nth2/density": "51f8b231e2962c6aff6ce574712129cea50c7f305ad49cbd3d70240107a05a3a",
    "2/constant/nth2/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/linear/integrate": "b469864af788c575ce5fcdaab9206abe5b437ccfcfb012393d0e9635980f7dab",
    "2/linear/default/R": "98ad9274d3a70fd7865107c924a3dd661757e9b09b7f7e60ddee915db0d87202",
    "2/linear/default/checkpoints": "49de293847c47741ab95eb62dfef29bfaee3fa9e53e7273f409ad356000481d1",
    "2/linear/default/inverse": "bdfff47b29fc3988fc48898f623d12564bc966ed70007f286112e49613299a0f",
    "2/linear/span/R": "98ad9274d3a70fd7865107c924a3dd661757e9b09b7f7e60ddee915db0d87202",
    "2/linear/span/checkpoints": "2b1df33765a60061375f980764f4a2948095a1b451ccb31e7db93191bf9529b4",
    "2/linear/span/inverse": "cdf6872b82ca0e31734fee5ec30fdf0be2028117174a04e49d419f9ae0f988d6",
    "2/linear/cached/R": "98ad9274d3a70fd7865107c924a3dd661757e9b09b7f7e60ddee915db0d87202",
    "2/linear/cached_span/R": "98ad9274d3a70fd7865107c924a3dd661757e9b09b7f7e60ddee915db0d87202",
    "2/linear/path": "96219fb8cedb2aafde9a1df29402f2c67ce01d7327e0baa4646a3a340c4a25f3",
    "2/linear/location_cdf": "ee4a9ac10e3c774bc4636dc9b26fa78bf705c89a2d223fb6ad631037ccebdbed",
    "2/linear/order_density": "75c74ce2f3f41b30174d079bf851bb296ec7602b884388e97d0c86f32625c2c2",
    "2/linear/nth0/draws": "75803d005aabfbf0c9b5ce244da5bdc423dd471634ce39740f062310a4961169",
    "2/linear/nth0/batch": "1abca0dc35e7355e0232659ef63098b9e39d255ef7c87b2d53e6cacedbde9bda",
    "2/linear/nth0/lanes": "fbd3ba1bf6f76648025b00f370ce146d9e8c0362dfcd0fc3616343020fdec2cd",
    "2/linear/nth0/density": "f3c954461d4730cf463edbbc5ba420d28c60d92b9cd45885e717ae8e446aedd4",
    "2/linear/nth0/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/linear/nth1/draws": "3a541338ab19b22c65114c389443b6de664ee9102e03c44ecea1f12e644503fd",
    "2/linear/nth1/batch": "2b55ab0c259493e2365b0a9b380fb9c0ad303a34e39dfc7aa0e40fe4f2cfc326",
    "2/linear/nth1/lanes": "2f1896bf68acf3aabf704598a74c5506ca2667518a1eb67c9148049d35d40646",
    "2/linear/nth1/density": "769614064863d19dd4570d0542e6a4442cf1eb7f1d5fd2c230883034058ab75b",
    "2/linear/nth1/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/linear/nth2/draws": "3fda6316e254f377bc17ae362255f50a44be8f970a3ba165eeae180407347e0e",
    "2/linear/nth2/batch": "2e50e2b0c500633163dbcd466b9e3437826fb769d825f8116e9ac0a321a60718",
    "2/linear/nth2/lanes": "2f53f97ff515bc055c7b4d03633ca652edbb37b3243fcceab5dd722e2649e964",
    "2/linear/nth2/density": "950993b412de89dc4aad561e6bf6db2963c885f9c0ca04a27874ae2d5d84700c",
    "2/linear/nth2/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/sinusoid/integrate": "ef49d97a6f2c35c2ed3972cb8addf846409ec06235c9782f2e1b0c7c44e182f2",
    "2/sinusoid/default/R": "f50cda82d5298e6b65ed19a2980f830acefeb2e8f0294d0d5281f4edcfd9457b",
    "2/sinusoid/default/checkpoints": "b2a0e929c2d75149d8f0d7d40266b6502e267dda6898fe12ed0a4f6a05da7f2b",
    "2/sinusoid/default/inverse": "f7a68e231d9c1177b5dfc6fda25aa105c21418ce6a13c36bb356719de210bbe6",
    "2/sinusoid/span/R": "bd9612102ceb05828770088048dff3c65818068dfc8ca81909e221fcaf832c23",
    "2/sinusoid/span/checkpoints": "aac0ae3eea3a11d416a5307b719f5cb529ef3b7656851085a85947d2a654a9e6",
    "2/sinusoid/span/inverse": "6fa1ecce280397cae75a9572ded5de6de8a1611e4aee69a532d509b82da905bb",
    "2/sinusoid/cached/R": "f50cda82d5298e6b65ed19a2980f830acefeb2e8f0294d0d5281f4edcfd9457b",
    "2/sinusoid/cached_span/R": "bd9612102ceb05828770088048dff3c65818068dfc8ca81909e221fcaf832c23",
    "2/sinusoid/path": "a425fb42fd86eeb61361f4f023758817871b92fee4bdef2647e6321402837c0c",
    "2/sinusoid/location_cdf": "38f718941a237c1960562c7c7dc4cb0d87bf32f6c7347e455b3934c8c71cc952",
    "2/sinusoid/order_density": "a179da99078aa3c661b04de21b85fd26f488a83cab32af5662590553ee91ae5a",
    "2/sinusoid/nth0/draws": "8277e1a79c10588aeba3746a3bb9fd9861f5c4ad986fd6a77c95fb940ecd326c",
    "2/sinusoid/nth0/batch": "6c6c3ba315688adaba5e69783155fee0f6021cc6f09ad46ee0044b917ce6522a",
    "2/sinusoid/nth0/lanes": "d99460a236dcd60c7c0088050910db4823088731d6bbb5eff5cf76d218a3f8db",
    "2/sinusoid/nth0/density": "9f3ed35a02f580ef033a6cb1c7816f86673947efe98d71e024cc83d41eb350ce",
    "2/sinusoid/nth0/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/sinusoid/nth1/draws": "50f8780d3e034bd0f27b74636701257ac4151b3edef304cfa6bfd229abbb889f",
    "2/sinusoid/nth1/batch": "f012ab0f92bee413c372f5c8965ddecad26f997bec30018f8c55c6008e65e0e8",
    "2/sinusoid/nth1/lanes": "1839fbc937b0816574ca25282509010a70f7cd9f726d28ad844f0a03127b70fa",
    "2/sinusoid/nth1/density": "f69683fe6b8a5dcd5e3459163525dd7b9eb22ba0a33da0937cc760d54ccce51a",
    "2/sinusoid/nth1/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/sinusoid/nth2/draws": "42963fe114bafbef56b23e8f70b0c5af35a365eb9d2bace035605f61a0acdf07",
    "2/sinusoid/nth2/batch": "9092831d953df220cd63e3dd9d27b305e24f53a55d99ba313454ece7be0ea4b4",
    "2/sinusoid/nth2/lanes": "54894af0a283b9478801ab19e21d59d5b49db77466cc8a73ca2ea0c1467afa45",
    "2/sinusoid/nth2/density": "b235129b02467b3f3753cfeebdcbceb441459eaa0eb85bba424fee989ff9d745",
    "2/sinusoid/nth2/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/step_dyadic/integrate": "1b0fc0e08c6a0fee20ef024e9fdbb219839fb304ec0ac4b985ce0afc1623154e",
    "2/step_dyadic/default/R": "634068c7dcaef24d3ccfef5c15ea18a7b2b410991ad3fa6591300c16529b442d",
    "2/step_dyadic/default/checkpoints": "1223a28e59f8268160230e1391db2d9c2dd2c54b830c45aa2a5d1eaa8d545657",
    "2/step_dyadic/default/inverse": "f0ec43eea7c22fc89c2d406b1db5151cc45af8f4e026de0123aa915541c7e8ed",
    "2/step_dyadic/span/R": "634068c7dcaef24d3ccfef5c15ea18a7b2b410991ad3fa6591300c16529b442d",
    "2/step_dyadic/span/checkpoints": "f35708485f27fca8bf9448722eaab37d3c0c293603c019127e0ef68ffc6ea870",
    "2/step_dyadic/span/inverse": "f0ec43eea7c22fc89c2d406b1db5151cc45af8f4e026de0123aa915541c7e8ed",
    "2/step_dyadic/cached/R": "634068c7dcaef24d3ccfef5c15ea18a7b2b410991ad3fa6591300c16529b442d",
    "2/step_dyadic/cached_span/R": "634068c7dcaef24d3ccfef5c15ea18a7b2b410991ad3fa6591300c16529b442d",
    "2/step_dyadic/path": "aa4e8c2255a7cb5d5b430d8d58813f23a6ba53f5a793e678ba46177ac41037a7",
    "2/step_dyadic/location_cdf": "d52621b88002de50dccbca055a2c163e8f7bf3196cc75d966b0b26e49dc551c0",
    "2/step_dyadic/order_density": "c2886b13702c13b8e1d726d98bcfb3f915c05df687bf383c8c29505f2fc94891",
    "2/step_dyadic/nth0/draws": "4fa6fd1ff1639058e041365e8caed503c858c582cf8a0bc77e35ee044c90fd4a",
    "2/step_dyadic/nth0/batch": "1cdecda4839713e8f4b2b94debdd1079180f6c8b299aea616cb9513c1c19e6e6",
    "2/step_dyadic/nth0/lanes": "33a07f87d86f34912af9e1852a25f47f3a69f0de2b480195e93bc0bb1958a633",
    "2/step_dyadic/nth0/density": "2cdea3410588c7124a9c49329e32bfc04959fba0557568f151d76902da2979dd",
    "2/step_dyadic/nth0/mass": "7805945dae691ed4e960e54b65278d0d130dc66567ca03ac9f17b565c8103023",
    "2/step_dyadic/nth1/draws": "c79f9be3b7a9d99208e1e3a33e246dab78e93138773237491738ec94ef36ee01",
    "2/step_dyadic/nth1/batch": "df811d5b1f8b46077c2b3c25fb5fab2561bbd5dada505cb6a2338947650222e2",
    "2/step_dyadic/nth1/lanes": "080ebb2c8be3813434e3408fdf8f12728be213d028489cd74c5e904ef7cb4c3b",
    "2/step_dyadic/nth1/density": "06814b6f3b103b2004cb7249d4b1f7405d81ef6d0ba6e0e29584f9dc159975b8",
    "2/step_dyadic/nth1/mass": "983467b665e45b072d1e57332cbfeff3e116e8571fd09fd41e4a811bd74f3106",
    "2/step_dyadic/nth2/draws": "cd5c9c08608b4f76922c079cd11ecc5ee52c08bd9928003db2fda4605c6c91cc",
    "2/step_dyadic/nth2/batch": "76af6042d3de101024a0124d12d90d045c0126d2b1d5c825e20ba52c4c6c4f7e",
    "2/step_dyadic/nth2/lanes": "fa042b2473217d826959a792d4956072b5de8f56b39634bf9cfc40a4e23def6e",
    "2/step_dyadic/nth2/density": "95bc279e00ca4295790944f4156ff0eab816ee34ab8a0e352bc696328d634194",
    "2/step_dyadic/nth2/mass": "aae8018e0046b182524e8898669f0d0222f8425ca080f9287044e06d2a3c6dd2",
    "2/bump/integrate": "d1b045a56b686ee08f51b5a30b0f6988ee21fe6b623c973313dbf6889e9397ea",
    "2/bump/default/R": "0fb0609200c2808e786293173cfe33a048cb7dc7e60fbf2b4e7397ce6502f958",
    "2/bump/default/checkpoints": "b10f33c2a63c591ac3224aca9ce6fdac87fb44ec05e1df1864edb21a309eca06",
    "2/bump/default/inverse": "0af7fada02a1412328492bc78f956b7176475ce504fae3aff18b9f7241b190d1",
    "2/bump/span/R": "0ada87a8ffd5b693d523ee53b85650d5e076c9dd378992fec0f600e620266118",
    "2/bump/span/checkpoints": "d7e9aaf424548400f8c39b7540f13fec34e692e5946fa6a75c18f628e5409228",
    "2/bump/span/inverse": "142fa4e98d58f494a9c89dd75898ab8dd2121ad4e1323414b30490d677ad866b",
    "2/bump/cached/R": "0fb0609200c2808e786293173cfe33a048cb7dc7e60fbf2b4e7397ce6502f958",
    "2/bump/cached_span/R": "0ada87a8ffd5b693d523ee53b85650d5e076c9dd378992fec0f600e620266118",
    "2/bump/path": "7c2711a8e6d36a700dc6b73124df9c64e3eea7627fc0a6ca99ac706c415b3a8d",
    "2/bump/location_cdf": "f36dcc7d288a762005e07ef4df2e10fa10267540b48ca68abb1d6d4a2fa7ff9b",
    "2/bump/order_density": "cc2eae65f334d52fb2adec7fa54aedf91aa20aaa1ec9b545b2d4dc37873eadad",
    "2/bump/nth0/draws": "670b7d86f7db42c1461aa7acb8673c522117ec497786baf25ebd9417ae96f5cb",
    "2/bump/nth0/batch": "f015641ca1e788963b34bcfe14c6a847661151d30614bb9037418c1d48149b84",
    "2/bump/nth0/lanes": "7416eaf9e907a78bbe8dc8b937d17b28fa46e6dccfa9e9fb8b40cc2f4110dfe4",
    "2/bump/nth0/density": "9b4f101f724073ac41b0112edc8c0d7c86910da2f253928a126d3b75c474f4b2",
    "2/bump/nth0/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/bump/nth1/draws": "96765d0c45aee04051451cec6c90e386002d23cc6c945e10a9f5ee7ac25e25ff",
    "2/bump/nth1/batch": "af1bf79cb7329f31c003d3906afe00977c221b368c938e1e5fd84336ca389771",
    "2/bump/nth1/lanes": "157b5f993845f780537fe1e13f21e63373424c3eb296066b19e99131f382d1bf",
    "2/bump/nth1/density": "58a7a82bbd67a376934164779aee5551be24dbddbc347ae5d495bcef53f3c132",
    "2/bump/nth1/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/bump/nth2/draws": "cefd450ec5a502d97fa4b5ed7120103eeb4d04882bef0458b229d6d7716b98c2",
    "2/bump/nth2/batch": "2c0e646b766332aa827c119254c25c0086fd8416088045b7aaee65ca3cb5b13c",
    "2/bump/nth2/lanes": "49dd776ca13f4125fca9ac6a8e5bce04a0ca6c188a9dcd9b4da6a00475becd9a",
    "2/bump/nth2/density": "dc107a5afb28fb70255df6a862205d429ce8849b85706ec4e903654e678911dc",
    "2/bump/nth2/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/spike2/integrate": "9124cd5b9e9539d68bf92f6ab4856c16eb2c36918b4608701ed61da7aa462ae6",
    "2/spike2/default/R": "3a95f2e13dd143fd264db5f5850e52804e4292cddbc45cd362f1a18f69fc0e69",
    "2/spike2/default/checkpoints": "6165b4fc5736932ec1022df0e95686df429240f495f08d70c3948a427acbe7b4",
    "2/spike2/default/inverse": "c46cf1ab9e3c4d77ac4db423554ec1a9b3952d23da0f86584b92cb722753075e",
    "2/spike2/span/R": "3a95f2e13dd143fd264db5f5850e52804e4292cddbc45cd362f1a18f69fc0e69",
    "2/spike2/span/checkpoints": "6165b4fc5736932ec1022df0e95686df429240f495f08d70c3948a427acbe7b4",
    "2/spike2/span/inverse": "c46cf1ab9e3c4d77ac4db423554ec1a9b3952d23da0f86584b92cb722753075e",
    "2/spike2/cached/R": "3a95f2e13dd143fd264db5f5850e52804e4292cddbc45cd362f1a18f69fc0e69",
    "2/spike2/cached_span/R": "3a95f2e13dd143fd264db5f5850e52804e4292cddbc45cd362f1a18f69fc0e69",
    "2/spike2/path": "db8ff865949cc60796d64e40f545a032605f8bd211898ef09e422cdae89f0a23",
    "2/spike2/location_cdf": "56aad4e95d5334c5ce8a2aba549fb5bca331dd1067328339aef0e41125b05515",
    "2/spike2/order_density": "11bab0b81d5b8b959fdbf1f281b8b56d603b8b890a71ad615f4e35186b0c6931",
    "2/spike2/nth0/draws": "b0b72b3b0771a9792efc622cbcd24a771ab11d3e54300be801ca8e3dae3da7ed",
    "2/spike2/nth0/batch": "69fa1eedf6e81dd96bf5180f7e5f9e7f67e624840f526aef93ba1a384bddffa9",
    "2/spike2/nth0/lanes": "33b97595c1462cd24795c4f465b537741821c846f527381c3e9aae5df68c9ec6",
    "2/spike2/nth0/density": "5a9a827b1719dd641de6f5dc5979e877d227648c931c3d020c106047751682a0",
    "2/spike2/nth0/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/spike2/nth1/draws": "255bd19f995d98a349fe56c566737d5b712317f8448831249d4a76957f32f8b1",
    "2/spike2/nth1/batch": "ad8dc7c2e86f034a9a63b9be842d5154de18b5145550dab6a9c018a0bf993f03",
    "2/spike2/nth1/lanes": "f837c7383d07328a2cc9119147590a7a8a787aa5d1980b7d2b08554b3d76f69e",
    "2/spike2/nth1/density": "f1f3f5aba26201f9735f767b1ec9796f4c7529108085256ffd522d2727bf80dc",
    "2/spike2/nth1/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
    "2/spike2/nth2/draws": "42dd5f74db1978175691e78cb90f611594076e55158ba3d6b3b9597bc92b31cb",
    "2/spike2/nth2/batch": "a6412a5083dacddade2675456690d6d7d29017706a3d138c5ac882ef658a87f2",
    "2/spike2/nth2/lanes": "0f9859cdc89958e7a78575345a4278ef8f7036531aa68bddae0d0cd618f6daf3",
    "2/spike2/nth2/density": "610ff701b98a714eb3e239d43cb2d9dbd0b43eb8f03f42d3d30e02faddf4c9a8",
    "2/spike2/nth2/mass": "3fcd1a06581658e8e86780440fbc543c8826c9972a887dcfc0febbc4164c8202",
}


@pytest.mark.parametrize("seed,name", _keys())
def test_golden_digests(seed, name):
    got = {f"{seed}/{name}/{what}": digest for what, digest in _outputs(name, seed)}
    want = {k: v for k, v in GOLDEN.items() if k.startswith(f"{seed}/{name}/")}
    assert got == want


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason='ROADMAP "Bits that hold on every CPU": the panels and the dense output '
    "sum each lane with an OpenBLAS dot, whose bits depend on the kernel OpenBLAS "
    "picks for the CPU",
)
def test_golden_digests_under_another_openblas_kernel():
    # one case, recomputed in a child under the kernels that OpenBLAS picks
    # for Zen; there is nothing to compare where OpenBLAS cannot switch
    # kernels, or already runs those
    if not openblas.dynamic_arch():
        pytest.skip("numpy's OpenBLAS is not built DYNAMIC_ARCH")
    if openblas.core("Haswell") == openblas.core():
        pytest.skip("OpenBLAS runs the Haswell kernels here already")
    code = f"import sys; sys.path.insert(0, {TESTS!r}); import test_integration_golden as g; "
    code += "print(dict(g._outputs('bump', 1)))"
    got = ast.literal_eval(openblas.run(code, "Haswell").stdout)
    want = {k.split("/", 2)[2]: v for k, v in GOLDEN.items() if k.startswith("1/bump/")}
    assert got == want


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason='ROADMAP "Bits that hold on every CPU": numpy runs exp, log, log1p and '
    "power on kernels it picks for the CPU, whose last bits differ",
)
def test_golden_digests_without_avx512_kernels():
    # the bump case of this file and of the rejection goldens, recomputed
    # in a child with numpy's AVX-512 kernels switched off.  On a CPU
    # without AVX-512 the child would run the very kernels this process
    # runs, so there is nothing to compare
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("AVX512_SKX"):
        pytest.skip("the CPU has no AVX-512: the child would run the same kernels")
    code = f"import sys; sys.path.insert(0, {TESTS!r}); "
    code += "import test_integration_golden as g, test_rejection_golden as r; "
    code += "print([dict(g._outputs('bump', 1)), dict(r._outputs('bump', 1))])"
    features = "AVX512_SPR AVX512_ICL X86_V4"
    got = ast.literal_eval(openblas.run(code, NPY_DISABLE_CPU_FEATURES=features).stdout)
    want = [
        {k.split("/", 2)[2]: v for k, v in golden.items() if k.startswith("1/bump/")}
        for golden in (GOLDEN, test_rejection_golden.GOLDEN)
    ]
    assert got == want


# the steps of the golden digests here and in test_rejection_golden: the
# breaks, the levels and the mass over the window [0, 8]
STEPS = {
    "step_dyadic": ((0.0, 2.0, 5.0, 8.0), (3.0, 1.0, 4.0), 21.0),
    "step_off_dyadic": ((0.0, 2.1, 5.3, 8.0), (3.0, 1.0, 4.0), 20.3),
}


def _step_r(breaks, levels, t):
    """The closed form of R, the mass from 0, of a step at points t."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    for lo, hi, level in zip(breaks[:-1], breaks[1:], levels):
        out += level * (np.clip(t, lo, hi) - lo)
    return out


@pytest.mark.parametrize("name", STEPS)
def test_step_outputs_against_closed_form(name):
    # the digests pin the bits; this pins how far the steps' outputs lie
    # from their piecewise-linear closed forms, wherever a break falls
    breaks, levels, mass = STEPS[name]
    model, window = RateModel.piecewise_constant(breaks, levels), Interval(0.0, 8.0)
    tol = 2 * DEFAULT_TOL
    assert abs(integrate(model, 0.0, 8.0) - mass) <= tol
    assert abs(expected_count(model, window) - mass) <= tol
    closed = lambda a, b: float(_step_r(breaks, levels, b) - _step_r(breaks, levels, a))
    for a, b in ((2.4, 8.0), (-4.0, 4.0)):
        assert abs(integrate(model, a, b) - closed(a, b)) <= tol, (a, b)
    xs = np.linspace(0.0, 8.0, POINTS)
    for ci in (CumulativeIntensity(model), CumulativeIntensity(model, span=window)):
        rs = ci(xs)
        assert np.abs(rs - _step_r(breaks, levels, xs)).max() <= tol
        ts, r_at = map(np.array, zip(*ci.checkpoints))
        assert np.abs(r_at - _step_r(breaks, levels, ts)).max() <= tol
        for seed in SEEDS:
            ys = np.random.default_rng(seed).uniform(rs[0], rs[-1], size=POINTS)
            assert np.abs(_step_r(breaks, levels, ci.inverse_many(ys)) - ys).max() <= tol
    xs = np.linspace(-0.8, 8.8, POINTS)
    want = _step_r(breaks, levels, np.clip(xs, 0.0, 8.0)) / mass
    assert np.abs(location_cdf(model, window, xs) - want).max() <= tol


@pytest.mark.parametrize("name", RATES)
def test_expected_count_is_integrate_bit_for_bit(name):
    # the window table's mass sums the segment masses integrate sums, in
    # the same order, so the mean count and the integral are one number
    make, (lo, hi) = RATES[name]
    model, width = make(), hi - lo
    for a in (lo, lo - 0.5 * width, 1e5):
        window = Interval(a, a + width)
        mass = expected_count(model, window)
        assert mass == integrate(model, window.lo, window.hi)
        assert mass == _window_intensity(model, DEFAULT_TOL, window).mass


if __name__ == "__main__":
    for seed, name in _keys():
        for what, digest in _outputs(name, seed):
            print(f'    "{seed}/{name}/{what}": "{digest}",')
