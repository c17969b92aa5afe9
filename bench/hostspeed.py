"""Host-speed probe: the reference the benchmark's timings are normalized to.

The shared host this benchmark was tuned on changes speed in regimes of a
second to minutes, by up to 40 %, separately on each CPU, and CPU time
moves with wall time.  Raw timings of identical work then spread by
30-40 % between 30 s runs; the ratio of an operation's time to this
probe's time, measured next to it on the same CPU, spreads by 2-5 %.
Timings are therefore reported as ``seconds * NOMINAL_S / probe seconds``:
the time the operation would take on a host where the probe takes
NOMINAL_S.

The probe uses numpy only, never the package, so no change to the package
can move it; its mix (small complex eigensolves, Kronecker products,
einsum, Python arithmetic) resembles one evaluation's.  Operations longer
than the regimes are probed inside as well: ``probing`` runs the probe
every PROBE_EVERY calls of ``metrics.information_report``, and
``console_main`` does the same inside a ``pingpong`` child process.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import numpy as np

NOMINAL_S = 0.015
PROBE_EVERY = 240  # evaluations, ~0.25 s
# prefix of the stderr line on which a probed child reports its probes
CHILD_PROBES = "host-speed probes: "


class HostSpeed:
    """A fixed reference computation of ~15 ms."""

    REPEATS = 8

    def __init__(self) -> None:
        rng = np.random.default_rng(20060)
        ginibre = rng.standard_normal((32, 4, 4)) + 1j * rng.standard_normal((32, 4, 4))
        rho = ginibre @ ginibre.conj().transpose(0, 2, 1)
        self._mats = list(rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None])
        self._eye = np.eye(2)

    def _work(self) -> float:
        acc = 0.0
        for _ in range(self.REPEATS):
            for m in self._mats:
                w = np.linalg.eigvalsh(m)
                w = w[w > 0]
                pair = np.kron(m, self._eye).reshape(4, 2, 4, 2)
                acc += float(np.einsum("ijkj->ik", pair).trace().real)
                acc += float(-(w * np.log2(w)).sum()) + sum(k * 0.5 for k in range(16))
        return acc

    def probe(self) -> float:
        """Seconds the reference computation takes now."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


def scale(probes: list[float]) -> float:
    """Factor that turns raw seconds into normalized seconds."""
    return NOMINAL_S * len(probes) / sum(probes)


@contextlib.contextmanager
def probing(speed: HostSpeed, probes: list[float]):
    """Append a probe to ``probes`` every PROBE_EVERY evaluations."""
    from pingpong import metrics

    original = metrics.information_report
    calls = 0

    def sampled(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls % PROBE_EVERY == 0:
            probes.append(speed.probe())
        return original(*args, **kwargs)

    metrics.information_report = sampled
    try:
        yield
    finally:
        metrics.information_report = original


def console_main() -> None:
    """The ``pingpong`` console script (``pingpong.cli:run``), probed.

    The probe times go to stderr on the last line, after the command's own
    output, so the parent can subtract them and normalize.
    """
    from pingpong import cli

    sys.argv[0] = "pingpong"
    probes: list[float] = []
    with probing(HostSpeed(), probes):
        code = cli.main()
    print(CHILD_PROBES + json.dumps(probes), file=sys.stderr)
    sys.exit(code)
