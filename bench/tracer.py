"""In-memory span recorder for the traced benchmark run.

``Tracer.install`` replaces public functions of the ``pingpong`` modules
(and ``numpy.linalg.eigvalsh``) with timing wrappers; ``Tracer.uninstall``
puts the originals back.  Nothing under ``src/`` is edited: the wrappers
sit on module attributes, which the package looks up at call time.

Each span is one row of parallel ``array`` columns (name id, start, end,
parent row, operation id, inside-an-evaluation flag), so a sweep's
~800k spans cost ~25 MB rather than a Python object each.  Self time is
a span's duration minus the durations of its direct children; spans
nest strictly because the package is single-threaded.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import inspect
import json
import time
from pathlib import Path

import numpy as np

from pingpong import attack, checks, cli, files, metrics, protocol, qlinalg, search

# (module, attribute) pairs wrapped with a plain timing span.  The span
# name is "<module>.<attribute>", which is also the per-layer metric prefix.
_TIMED = (
    (qlinalg, "partial_trace"),
    (qlinalg, "von_neumann_entropy"),
    (attack, "validate_attack"),
    (attack, "apply_attack"),
    (attack, "post_encoding_ensemble"),
    (attack, "detection_probability"),
    (metrics, "holevo_bound"),
    (protocol, "monte_carlo"),
    (files, "load_attack"),
    (cli, "cmd_demo"),
    (cli, "cmd_report"),
    (cli, "cmd_simulate"),
    (cli, "cmd_sweep"),
    (cli, "cmd_verify"),
)
_WRITERS = ((files, "save_curve_csv"), (files, "save_attack"))

EVAL = "metrics.information_report"
MAXIMIZE = "search.maximize_information"
BUILD = "search.build"
DENSITY = "qlinalg.DensityMatrix"
# Configurations named the way the report-mix workload names them; the
# encoding is told apart by its operation count (iz has 2, paulis has 4).
CONFIG_KEYS = ("simplified_iz", "simplified_paulis", "bell_iz", "bell_paulis")


def config_key(config) -> str:
    return f"{config.mode}_{'iz' if len(config.encoding_ops) == 2 else 'paulis'}"


@dataclasses.dataclass
class _SearchPoint:
    d_target: float
    tolerance: float
    ds: list


class Tracer:
    """Records spans while installed; computes per-layer metrics afterwards."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.in_eval = array.array("b")
        self._stack: list[int] = []
        self._eval_key: str | None = None
        self.op_id = -1
        self.eigvalsh_calls = dict.fromkeys(CONFIG_KEYS, 0)
        self.evals = dict.fromkeys(CONFIG_KEYS, 0)
        self.bytes_written = 0
        self.points: list[_SearchPoint] = []
        self._point: _SearchPoint | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new workload operation; later spans carry its id."""
        self.op_id += 1

    def _open(self, nid: int) -> int:
        row = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.in_eval.append(self._eval_key is not None)
        self.end.append(0.0)
        self._stack.append(row)
        self.start.append(time.perf_counter())
        return row

    def _close(self, row: int) -> None:
        self.end[row] = time.perf_counter()
        self._stack.pop()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn):
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(row)

        return wrapper

    def _timed_eval(self, fn):
        nid = self._intern(EVAL)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            config = args[1] if len(args) > 1 else kwargs["config"]
            key = config_key(config)
            row = self._open(nid)
            outer, self._eval_key = self._eval_key, key
            try:
                report = fn(*args, **kwargs)
            finally:
                self._eval_key = outer
                self._close(row)
            self.evals[key] += 1
            if self._point is not None:
                self._point.ds.append(report.d)
            return report

        return wrapper

    def _timed_maximize(self, fn):
        nid = self._intern(MAXIMIZE)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            point = _SearchPoint(
                d_target=float(bound["d_target"]),
                tolerance=bound["sweep_cfg"].detection_tolerance,
                ds=[],
            )
            row = self._open(nid)
            self._point = point
            try:
                return fn(*args, **kwargs)
            finally:
                self._point = None
                self._close(row)
                self.points.append(point)

        return wrapper

    def _traced_family(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            family = factory(*args, **kwargs)
            return dataclasses.replace(family, build=self.timed(BUILD, family.build))

        return wrapper

    def _counting_writer(self, name: str, fn):
        timed = self.timed(name, fn)

        @functools.wraps(fn)
        def wrapper(obj, path, *args, **kwargs):
            result = timed(obj, path, *args, **kwargs)
            self.bytes_written += Path(path).stat().st_size
            return result

        return wrapper

    def _counting_eigvalsh(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._eval_key is not None:
                self.eigvalsh_calls[self._eval_key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the traced entry points; call ``uninstall`` to restore them."""
        for module, attr in _TIMED:
            fn = getattr(module, attr)
            self._patch(module, attr, self.timed(f"{module.__name__.split('.')[-1]}.{attr}", fn))
        for module, attr in _WRITERS:
            self._patch(module, attr, self._counting_writer(f"files.{attr}", getattr(module, attr)))
        self._patch(metrics, "information_report", self._timed_eval(metrics.information_report))
        self._patch(search, "maximize_information", self._timed_maximize(search.maximize_information))
        for attr in ("full_unitary_family", "product_family"):
            self._patch(search, attr, self._traced_family(getattr(search, attr)))
        # DensityMatrix is a class (isinstance checks must keep working), so
        # its constructor is wrapped rather than the name.
        self._patch(qlinalg.DensityMatrix, "__init__", self.timed(DENSITY, qlinalg.DensityMatrix.__init__))
        # run_all reads the ALL_CHECKS global at call time.
        self._patch(checks, "ALL_CHECKS", tuple(
            self.timed("checks." + check.__name__.removeprefix("check_"), check)
            for check in checks.ALL_CHECKS
        ))
        self._patch(np.linalg, "eigvalsh", self._counting_eigvalsh(np.linalg.eigvalsh))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns as numpy arrays, plus duration and self time (s)."""
        cols = {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "in_eval": np.frombuffer(self.in_eval, dtype=np.int8).astype(bool),
        }
        duration = cols["end"] - cols["start"]
        children = np.zeros_like(duration)
        nested = cols["parent"] >= 0
        np.add.at(children, cols["parent"][nested], duration[nested])
        cols["duration"] = duration
        cols["self"] = duration - children
        return cols

    def write(self, path: Path, machine: dict) -> None:
        """Dump every span to a compressed ``.npz`` (names as JSON)."""
        cols = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            machine=np.array(json.dumps(machine)),
            **{key: cols[key] for key in ("name", "start", "end", "parent", "op", "self")},
        )

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every recorded span; ``ops`` operations ran."""
        cols = self.arrays()
        by_name = {name: cols["name"] == nid for nid, name in enumerate(self.names)}
        none = np.zeros(len(cols["name"]), dtype=bool)

        def mask(name: str) -> np.ndarray:
            return by_name.get(name, none)

        def mean_us(name: str, column: str = "duration") -> float:
            m = mask(name)
            return float(cols[column][m].mean() * 1e6) if m.any() else 0.0

        def mean_s(name: str) -> float:
            return mean_us(name) / 1e6

        evals = int(mask(EVAL).sum())

        def per_eval(name: str) -> float:
            return float((mask(name) & cols["in_eval"]).sum() / evals) if evals else 0.0

        out: dict[str, tuple[float, str]] = {}
        calls = sum(self.eigvalsh_calls.values())
        out["qlinalg.eigvalsh_per_eval"] = (calls / evals if evals else 0.0, "calls/eval")
        for key in CONFIG_KEYS:
            n = self.evals[key]
            out[f"qlinalg.eigvalsh_per_eval.{key}"] = (
                self.eigvalsh_calls[key] / n if n else 0.0, "calls/eval")
        for name in (DENSITY, "qlinalg.partial_trace", "qlinalg.von_neumann_entropy"):
            out[f"{name}.per_eval"] = (per_eval(name), "calls/eval")
            out[f"{name}.us"] = (mean_us(name), "us")
        out["attack.validate_attack.per_eval"] = (per_eval("attack.validate_attack"), "calls/eval")
        out["attack.apply_attack.per_eval"] = (per_eval("attack.apply_attack"), "calls/eval")
        for name in ("attack.apply_attack", "attack.post_encoding_ensemble",
                     "attack.detection_probability"):
            out[f"{name}.us"] = (mean_us(name), "us")
        out[f"{EVAL}.us"] = (mean_us(EVAL), "us")
        out[f"{EVAL}.self_us"] = (mean_us(EVAL, "self"), "us")
        out["metrics.holevo_bound.us"] = (mean_us("metrics.holevo_bound"), "us")

        # Search: evaluations are the information_report calls made inside
        # maximize_information, less the one re-evaluation of the best
        # point that each call makes after its restarts.
        searched = sum(len(p.ds) for p in self.points)
        evaluations = sum(max(len(p.ds) - 1, 0) for p in self.points)
        maximize = mask(MAXIMIZE)
        out["search.evaluations"] = (evaluations / ops if ops else 0.0, "evals/op")
        out["search.optimizer_us_per_eval"] = (
            float(cols["self"][maximize].sum() * 1e6 / searched) if searched else 0.0, "us")
        out["search.build_us_per_eval"] = (
            float(cols["duration"][mask(BUILD)].sum() * 1e6 / searched) if searched else 0.0, "us")
        feasible, first = 0, []
        for p in self.points:
            hits = [abs(d - p.d_target) <= p.tolerance for d in p.ds[:-1]]
            feasible += sum(hits)
            if any(hits):
                first.append(hits.index(True) + 1)
        out["search.feasible_ratio"] = (feasible / evaluations if evaluations else 0.0, "ratio")
        out["search.evals_to_first_feasible"] = (sum(first) / len(first) if first else 0.0, "evals")

        out["protocol.monte_carlo_s"] = (mean_s("protocol.monte_carlo"), "s")
        out["files.load_attack.us"] = (mean_us("files.load_attack"), "us")
        out["files.save_curve_csv.us"] = (mean_us("files.save_curve_csv"), "us")
        out["files.bytes_written"] = (self.bytes_written / ops if ops else 0.0, "bytes/op")
        for check in checks.ALL_CHECKS:
            suite = check.__name__.removeprefix("check_")
            out[f"checks.{suite}_s"] = (mean_s(f"checks.{suite}"), "s")
        for command in ("demo", "report", "simulate", "sweep", "verify"):
            out[f"cli.{command}_s"] = (mean_s(f"cli.cmd_{command}"), "s")
        return out
