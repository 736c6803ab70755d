"""Spans around the public functions of each sqkd layer, and the per-layer metrics.

Tracing lives entirely in the benchmark: `install` replaces each traced
function with a wrapper in its defining module and in every sqkd module that
bound the same object with `from .x import name`, and on `JointEvolution`
for `finish_round`.  Spans are kept in memory as columns (name, start, end,
parent span, op id, state size produced, raised) and reduced when the traced
segment ends.  A span's self time is its duration minus the durations of its
direct children.
"""

import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

#: traced public functions, by layer; the span name is "<layer>.<function>"
LAYERS = {
    "cli": ("main",),
    "protocol": ("run_protocol", "classical_phase", "write_transcript"),
    "analysis": ("theorem_check", "constraint_check"),
    "attacks": ("build_attack",),
    "engine": (
        "apply_unitary", "measure", "tensor", "factor_out", "project",
        "partial_trace", "trace_distance",
    ),
}
FINISH_ROUND = "protocol.JointEvolution.finish_round"
ENGINE = [f"engine.{fn}" for fn in LAYERS["engine"]]


def _produced(result) -> tuple[int, int]:
    """(largest dimension, total complex entries) of the states a call returned."""
    if isinstance(result, tuple):
        sizes = [_produced(r) for r in result]
        return max(s[0] for s in sizes), sum(s[1] for s in sizes)
    layout = getattr(result, "layout", None)
    if layout is not None:
        return layout.dim, layout.dim
    entries = getattr(result, "entries", None)
    if isinstance(entries, np.ndarray):
        return entries.shape[0], entries.size
    return 0, 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.dim = array("q")
        self.entries = array("q")
        self.raised = array("b")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters = {"rounds": 0, "transcript_bytes": 0, "min_evolutions": 0}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """fn with a span recorded around each call; `after` sees its arguments."""
        nid = self.name_id(name)
        sized = name.startswith("engine.")

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.dim.append(0)
            self.entries.append(0)
            self.raised.append(0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.end[i] = time.perf_counter()
                self._stack.pop()
            if sized:
                self.dim[i], self.entries[i] = _produced(result)
            if after is not None:
                after(self, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# Per-call notes that spans alone cannot give
# ---------------------------------------------------------------------------


def _note_run(tracer, args, kwargs):
    config = args[0] if args else kwargs["config"]
    tracer.counters["rounds"] += config.rounds


def _note_transcript(tracer, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tracer.counters["transcript_bytes"] += os.path.getsize(path)


def _note_theorem(signature, default_patterns):
    def note(tracer, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        patterns = bound.arguments["patterns"]
        if patterns is None:
            patterns = default_patterns(bound.arguments["max_pattern_len"])
        # one evolution per distinct prefix is the least a shared-prefix walk needs
        prefixes = {p.upper()[:k] for p in patterns for k in range(1, len(p) + 1)}
        tracer.counters["min_evolutions"] += len(prefixes)

    return note


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that undoes it."""
    from sqkd import analysis, protocol

    notes = {
        "protocol.run_protocol": _note_run,
        "protocol.write_transcript": _note_transcript,
        "analysis.theorem_check": _note_theorem(
            inspect.signature(analysis.theorem_check), analysis.default_patterns
        ),
    }
    modules = [m for n, m in sys.modules.items() if n == "sqkd" or n.startswith("sqkd.")]
    patched = []
    for layer, functions in LAYERS.items():
        module = importlib.import_module(f"sqkd.{layer}")
        for fn in functions:
            original = getattr(module, fn)
            wrapper = tracer.wrap(f"{layer}.{fn}", original, notes.get(f"{layer}.{fn}"))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        patched.append((m, attr, original))
                        setattr(m, attr, wrapper)
    cls = protocol.JointEvolution
    original = cls.finish_round
    patched.append((cls, "finish_round", original))
    cls.finish_round = tracer.wrap(FINISH_ROUND, original)

    def restore():
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)

    return restore


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------


def _under(names: np.ndarray, parent: np.ndarray, root: int) -> np.ndarray:
    """Mask of spans that have a span named `root` among their ancestors."""
    inside = [False] * len(names)
    is_root = (names == root).tolist()
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            inside[i] = inside[p] or is_root[p]
    return np.array(inside, dtype=bool)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced segment; sums are divided by its op count."""
    names = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    dim = np.frombuffer(tracer.dim, dtype=np.int64)
    entries = np.frombuffer(tracer.entries, dtype=np.int64)
    raised = np.frombuffer(tracer.raised, dtype=np.int8)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    nid = tracer.name_id
    per_op = 1.0 / max(n_ops, 1)

    def mask(name):
        return names == nid(name)

    def calls(name):
        return int(mask(name).sum())

    def self_time(name):
        return float(self_s[mask(name)].sum()) * per_op

    def total_time(name):
        return float(dur[mask(name)].sum()) * per_op

    out = {}
    for name in ENGINE:
        out[f"{name}.calls"] = (calls(name) * per_op, "calls/op")
        out[f"{name}.self_s"] = (self_time(name), "s/op")
    factor_calls = calls("engine.factor_out")
    refused = int(raised[mask("engine.factor_out")].sum())
    out["engine.factor_out.refused_ratio"] = (
        refused / factor_calls if factor_calls else 0.0, "ratio")
    engine_spans = np.isin(names, [nid(n) for n in ENGINE])
    out["engine.max_state_dim"] = (int(dim[engine_spans].max(initial=0)), "amps")
    out["engine.bytes_computed"] = (16.0 * float(entries[engine_spans].sum()) * per_op, "B/op")

    rounds = tracer.counters["rounds"]
    run_s = total_time("protocol.run_protocol") / per_op
    in_run = _under(names, parent, nid("protocol.run_protocol")) & engine_spans
    out["protocol.run_protocol.self_s"] = (self_time("protocol.run_protocol"), "s/op")
    out["protocol.round_us"] = (1e6 * run_s / rounds if rounds else 0.0, "us")
    out["protocol.max_live_dim"] = (int(dim[in_run].max(initial=0)), "amps")
    out["protocol.classical_phase.self_s"] = (self_time("protocol.classical_phase"), "s/op")
    out["protocol.write_transcript.s"] = (total_time("protocol.write_transcript"), "s/op")
    out["protocol.transcript_bytes"] = (tracer.counters["transcript_bytes"] * per_op, "B/op")

    in_theorem = _under(names, parent, nid("analysis.theorem_check"))
    evolutions = int((mask(FINISH_ROUND) & in_theorem).sum())
    out["analysis.round_evolutions"] = (evolutions * per_op, "evolutions/op")
    out["analysis.useful_evolution_ratio"] = (
        tracer.counters["min_evolutions"] / evolutions if evolutions else 0.0, "ratio")
    out["analysis.theorem_check.self_s"] = (self_time("analysis.theorem_check"), "s/op")
    out["analysis.constraint_check.self_s"] = (self_time("analysis.constraint_check"), "s/op")

    out["cli.main.self_s"] = (self_time("cli.main"), "s/op")
    out["attacks.build_attack.s"] = (total_time("attacks.build_attack"), "s/op")
    return out


# ---------------------------------------------------------------------------
# Engine kernels at fixed sizes
# ---------------------------------------------------------------------------


def _median_us(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(times))


def kernel_metrics(seed: int) -> dict[str, tuple[float, str]]:
    """Median time of one engine call on random inputs of a fixed size.

    State kernels run at 3 and 21 qubits (2^21 amplitudes is the largest
    state the exact workload builds).  trace_distance takes density
    matrices, so it runs at 3 and 6 qubits: 6 is the largest probe register
    `sqkd check` traces down to.
    """
    from sqkd.engine import (
        SubsystemLayout, apply_unitary, factor_out, measure, partial_trace,
        random_state, random_unitary, tensor, trace_distance,
    )

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1 << 20]))

    def qubits(n, first=0):
        return SubsystemLayout((2,) * n, tuple(f"Q{i}" for i in range(first, first + n)))

    out = {}
    for n, reps in ((3, 300), (21, 5)):
        psi = random_state(qubits(n), rng)
        u = random_unitary(4, rng)
        product = tensor(random_state(qubits(1), rng), random_state(qubits(n - 1, 1), rng))
        cases = {
            "apply_unitary": lambda: apply_unitary(psi, u, ("Q1", f"Q{n - 1}")),
            "measure": lambda: measure(psi, "Q1", "x", rng),
            "factor_out": lambda: factor_out(product, "Q0"),
            "partial_trace": lambda: partial_trace(psi, ("Q0", "Q1", "Q2")),
        }
        for fn, call in cases.items():
            out[f"engine.kernel.{fn}.q{n}_us"] = (_median_us(call, reps), "us")
    for n in (3, 6):
        rhos = [partial_trace(random_state(qubits(2 * n), rng), [f"Q{i}" for i in range(n)])
                for _ in range(2)]
        out[f"engine.kernel.trace_distance.q{n}_us"] = (
            _median_us(lambda: trace_distance(*rhos), 300), "us")
    return out

