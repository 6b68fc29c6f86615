"""The rates of the benchmark mix: each as an analytic oracle, as library
input and as CLI flags.

Nothing here imports ``ippp``; :func:`model` does so when it is called.
"""

from __future__ import annotations

from oracles import Bump, Constant, Linear, PiecewiseConstant, Plateau, Sinusoidal

# name -> (oracle, how ippp builds it)
# a spec is ("expr", text) or (family, {param: value}) with the CLI's
# family names and parameter keys
_MIX = {
    "const2": (Constant(2.0), ("constant", {"c": "2"})),
    "pwconst": (PiecewiseConstant([0, 2, 5, 8], [3, 1, 4]), ("pwconst", {"breaks": "0:2:5:8", "levels": "3:1:4"})),
    # the same levels with jumps off the dyadic points of [0, 8]: only in
    # the known-defect case of the window workload
    "pwconst_offgrid": (
        PiecewiseConstant([0, 2.1, 5.3, 8], [3, 1, 4]),
        ("pwconst", {"breaks": "0:2.1:5.3:8", "levels": "3:1:4"}),
    ),
    "linear": (Linear(1.0, 0.5), ("linear", {"a": "1", "b": "0.5"})),
    "sin": (Sinusoidal(2.0, 1.0), ("sin", {"a": "2", "b": "1"})),
    "bigsin": (Sinusoidal(20.0, 5.0, 0.1), ("sin", {"a": "20", "b": "5", "omega": "0.1"})),
    "sinexpr": (Sinusoidal(2.0, 1.0), ("expr", "2+sin(x)")),
    "bump": (Bump(1.0, 50.0, 3.0, 0.5), ("expr", "1 + 50*exp(-((x-3)^2)/0.5)")),
    "gauss": (Bump(0.0, 1.0, 0.0, 2.0), ("expr", "exp(-x^2/2)")),
    "plateau": (Plateau(), ("expr", "max(0, sin(x))")),
    # the two spikes of the named faults
    "spike": (Bump(1.0, 1000.0, 5.0003, 1e-6), ("expr", "1 + 1000*exp(-((x-5.0003)^2)/1e-6)")),
    "spike2": (Bump(1.0, 200.0, 0.50049, 1e-8), ("expr", "1 + 200*exp(-((x-0.50049)^2)/1e-8)")),
}

ORACLES = {name: oracle for name, (oracle, _) in _MIX.items()}


def expression(name: str) -> str | None:
    kind, arg = _MIX[name][1]
    return arg if kind == "expr" else None


def cli_flags(name: str) -> list[str]:
    kind, arg = _MIX[name][1]
    if kind == "expr":
        return ["--rate", arg]
    return ["--rate-family", kind, "--params", ",".join(f"{k}={v}" for k, v in arg.items())]


def model(name: str):
    """The ippp RateModel for a rate of the mix."""
    from ippp import RateModel

    kind, arg = _MIX[name][1]
    if kind == "expr":
        return RateModel.from_expression(arg)
    if kind == "constant":
        return RateModel.constant(float(arg["c"]))
    if kind == "linear":
        return RateModel.linear(float(arg["a"]), float(arg["b"]))
    if kind == "sin":
        return RateModel.sinusoidal(
            float(arg["a"]), float(arg["b"]), float(arg.get("omega", 1.0)), float(arg.get("phi", 0.0))
        )
    breaks = [float(v) for v in arg["breaks"].split(":")]
    levels = [float(v) for v in arg["levels"].split(":")]
    return RateModel.piecewise_constant(breaks, levels)
