"""Span tracing installed from outside the program.

The tracer replaces each traced public function, in every ``wellprobe``
module that binds it, with a wrapper that records one span per call: name,
parent span, operation id, start and end in ``perf_counter_ns``.  Spans nest
across layer boundaries (a ``quadrature`` call made inside ``qfi_static``
is a child of it), so a layer's self time is its span duration minus the
time its direct children cover.  Work counters are taken at the same call
boundaries from the arguments.  Spans stay in memory, in flat integer
arrays, until the run writes them out.

Nothing here is imported by the program, and removing the wrappers restores
the original function objects, so untraced runs execute unmodified code.
"""

from __future__ import annotations

import array
import gzip
import math
import sys
import time
from collections import Counter

# (module, function) pairs that get spans; the span name is module.function
TRACED = [
    ("well", "build_overlap_table"),
    ("states", "amplitudes"),
    ("states", "wavefunction"),
    ("states", "d_wavefunction"),
    ("quadrature", "quadrature"),
    ("metrology", "qfi_static"),
    ("metrology", "fi_position"),
    ("metrology", "report"),
    ("metrology", "sld_matrix"),
    ("dynamics", "qfi_time"),
    ("dynamics", "qfi_parabolic_time"),
    ("dynamics", "truncation_residual"),
    ("entangled", "entanglement_gain_grid"),
    ("entangled", "qsnr_ghz"),
    ("entangled", "qsnr_w3"),
    ("entangled", "qsnr_two_eigen"),
    ("entangled", "qsnr_two_polynomial"),
    ("inference", "sample_positions"),
    ("inference", "log_likelihood"),
    ("inference", "mle_estimate"),
    ("inference", "crlb_experiment"),
    ("cli", "cmd_static"),
    ("cli", "cmd_energy"),
    ("cli", "cmd_time"),
    ("cli", "cmd_entangled"),
    ("cli", "cmd_montecarlo"),
]

MODULES = ["well", "states", "quadrature", "metrology", "dynamics", "entangled", "inference", "cli"]


def span_name(module: str, func: str) -> str:
    # cli subcommands are named after the subcommand, not the handler
    if module == "cli" and func.startswith("cmd_"):
        return f"cli.{func[4:]}"
    return f"{module}.{func}"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, column-wise
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.child = array.array("q")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.current_op = -1
        self.recording = True
        self._seen_amplitudes: set = set()
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a wellprobe module binds it."""
        mods = [m for k, m in sys.modules.items() if k == "wellprobe" or k.startswith("wellprobe.")]
        for module, func in TRACED:
            owner = sys.modules.get(f"wellprobe.{module}")
            if owner is None:
                continue
            orig = getattr(owner, func)
            wrapper = self._wrap(span_name(module, func), orig)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._installed.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        is_amplitudes = name == "states.amplitudes"
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if count is not None and self.current_op >= 0:
                args, kwargs = count(args, kwargs)
            cold = is_amplitudes and self._first_expansion(args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.current_op)
            self.child.append(0)
            self.end.append(0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                stop = clock()
                self.stack.pop()
                self.end[idx] = stop
                if self.stack:
                    self.child[self.stack[-1]] += stop - self.start[idx]
                if cold:
                    self.counters["states.amplitudes.cold_ns"] += stop - self.start[idx]

        return wrapper

    def _first_expansion(self, args, kwargs) -> bool:
        """True the first time this process expands a (state, basis size)."""
        key = (_arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "config").truncation)
        if key in self._seen_amplitudes:
            return False
        self._seen_amplitudes.add(key)
        return True

    # counters taken from the arguments at the call boundary

    def _count_points(self, name, args, kwargs):
        x = _arg(args, kwargs, 2, "x")
        self.counters[name + ".points"] += getattr(x, "size", 1)
        return args, kwargs

    def _count_states_wavefunction(self, args, kwargs):
        return self._count_points("states.wavefunction", args, kwargs)

    def _count_states_d_wavefunction(self, args, kwargs):
        return self._count_points("states.d_wavefunction", args, kwargs)

    def _count_quadrature_quadrature(self, args, kwargs):
        integrand = _arg(args, kwargs, 0, "f")
        counters = self.counters

        def counted(x):
            counters["quadrature.quadrature.points"] += x.size
            return integrand(x)

        if "f" in kwargs:
            return args, dict(kwargs, f=counted)
        return (counted,) + tuple(args[1:]), kwargs

    def _count_well_build_overlap_table(self, args, kwargs):
        size = _arg(args, kwargs, 0, "config").truncation
        # two dense float64 matrices; computed from the size, not measured
        self.counters["well.build_overlap_table.table_bytes"] += 2 * size * size * 8
        return args, kwargs

    def _count_dynamics_qfi_time(self, args, kwargs):
        size = _arg(args, kwargs, 0, "ev").cfg.truncation
        # one assembly at N and, for its convergence probe, one at N - 10
        probe = size - 10
        self.counters["dynamics.series_terms"] += size * size + (probe * probe if probe >= 1 else 0)
        return args, kwargs

    def _count_dynamics_qfi_parabolic_time(self, args, kwargs):
        odd = math.ceil(_arg(args, kwargs, 0, "cfg").truncation / 2)
        self.counters["dynamics.series_terms"] += odd * odd
        return args, kwargs

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls and self time of operation spans, plus counters.

        Spans recorded outside an operation (op id -1, the set-up phase) are
        left out of calls, self time and work counters; they only feed the
        cold-expansion time.
        """
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(len(self.start)):
            if self.op[i] < 0:
                continue
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_ns[name] += self.end[i] - self.start[i] - self.child[i]
        return {"calls": dict(calls), "self_ns": dict(self_ns), "counters": dict(self.counters)}

    def write(self, path: str) -> int:
        """Write all spans as gzipped CSV; returns the span count."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns,self_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.op[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i]},{self.end[i]},{self.end[i] - self.start[i] - self.child[i]}\n"
                )
        return len(self.start)


def merge(summaries: list[dict]) -> dict:
    """Add up summaries from several traced processes."""
    out = {"calls": Counter(), "self_ns": Counter(), "counters": Counter()}
    for s in summaries:
        for key in out:
            out[key].update(s[key])
    return {k: dict(v) for k, v in out.items()}
