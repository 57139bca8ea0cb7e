"""Child-process entry points of the benchmark; run.py starts each one in a
fresh interpreter with ``src`` on PYTHONPATH.

    python perfbench/child.py warm
        import the package once, so later children find compiled bytecode
    python perfbench/child.py yardstick
        time ``yardstick()`` once per line read from stdin and print each
        time; run.py uses it to time the second core together with its own
    python perfbench/child.py setup WIDTH HEIGHT PAIRS SEED
        import gwmc.cli and build a workload's inputs: the lattice, the
        displacement-class index when PAIRS is 1, and the initial state
    python perfbench/child.py trace OUT.json CLI-ARGS...
        run ``gwmc.cli.main(CLI-ARGS)`` with the tracer installed and write
        the aggregated spans to OUT.json
"""

from __future__ import annotations

import json
import sys
import time


def yardstick() -> float:
    """A fixed numpy computation that does not touch gwmc; run.py times it
    next to every measured command to follow the speed of the machine.
    Small-array arithmetic, a gather from a (1024, 4) neighbour table and
    16x16 complex products: the three kinds of work the workloads do."""
    import numpy as np

    rng = np.random.default_rng(0)
    spins = rng.normal(size=(36, 2)) + 1j * rng.normal(size=(36, 2))
    field = rng.normal(size=(1024, 3))
    table = rng.integers(0, 1024, size=(1024, 4))
    gen = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = np.eye(16, dtype=complex) / 16
    for _ in range(1000):
        n2 = spins.real**2 + spins.imag**2
        spins = spins / np.sqrt(n2.sum(axis=-1))[:, None] * (1 + 1e-3j)
        field = 0.5 * field + 0.125 * field[table, :].sum(axis=-2)
        rho = rho + 1e-3 * (gen @ rho - rho @ gen)
    return float(abs(spins).sum() + field.sum() + rho.trace().real)


def yardstick_helper() -> None:
    yardstick()  # the first call pays for importing numpy
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        yardstick()
        print(time.perf_counter() - t0, flush=True)


def setup(width: int, height: int, pairs: bool, seed: int) -> None:
    import gwmc.cli  # noqa: F401  (the import is part of what a command pays)
    from gwmc.dynamics import TrajectoryConfig, initial_product_state
    from gwmc.lattice import build_lattice, pair_class_index

    geometry = build_lattice(width, height)
    if pairs:
        pair_class_index(geometry)
    initial_product_state(TrajectoryConfig(t_total=1.0, seed=seed), geometry.n_sites)


def trace(out_path: str, argv: list[str]) -> int:
    import gwmc.cli
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return gwmc.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.to_json(), fh)


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "warm":
        import gwmc.cli  # noqa: F401
        return 0
    if mode == "yardstick":
        yardstick_helper()
        return 0
    if mode == "setup":
        width, height, pairs, seed = (int(v) for v in rest)
        setup(width, height, bool(pairs), seed)
        return 0
    if mode == "trace":
        return trace(rest[0], rest[1:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
