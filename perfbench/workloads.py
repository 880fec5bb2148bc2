"""The four benchmark workloads: seeded inputs, operations and their checks.

Every workload is a closed loop with one caller.  ``cycles(seed)`` yields
lists of operations forever; the harness runs whole lists until its time is
up, so each run holds the same mix of operation kinds.  Each list has an odd
number of operations, which keeps the median away from the boundary
between two kinds.  ``warm()`` expands every distinct (state, basis size) a
workload uses, which fills the program's caches; the harness times the
import and ``warm()`` as set-up.

Library functions are always looked up through their module at call time
(``wp.dynamics.qfi_time``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

import wellprobe as wp
from checks import CheckFailed, close, require
import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], bytes]


def _floats(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _spread_widths(rng, lo: float, hi: float):
    """Endless log-spaced widths in [lo, hi] from a seeded starting point.

    Consecutive values follow the golden-ratio sequence, so any stretch of
    them covers the range evenly: every seed gives a run the same spread of
    widths, and width-dependent costs (adaptive quadrature works to an
    absolute tolerance) do not make one seed slower than another.
    """
    u = float(rng.uniform())
    step = (math.sqrt(5.0) - 1.0) / 2.0
    while True:
        yield math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        u = (u + step) % 1.0


def _amplitude_key(state) -> tuple:
    """The key of ``checks.amplitude_reference`` for a probe state."""
    if isinstance(state, wp.Polynomial):
        return ("poly", state.p)
    if isinstance(state, wp.Parabolic):
        return ("parabolic",)
    if isinstance(state, wp.Eigen):
        return ("levels", ((state.n, 1.0),))
    if isinstance(state, wp.Superposition):
        return ("levels", ((state.n, math.cos(state.alpha)), (state.m, math.sin(state.alpha))))
    return ("levels", tuple(enumerate(state.coefficients, start=1)))


def _combined(kind: str, label: str, parts: list[Op]) -> Op:
    """One operation made of several library calls, checked part by part."""

    def run():
        return [part.run() for part in parts]

    def check(results):
        require(len(results) == len(parts), f"{len(results)} results for {len(parts)} calls")
        for part, result in zip(parts, results):
            try:
                part.check(result)
            except CheckFailed as exc:
                raise CheckFailed(f"{part.label}: {exc}") from exc

    def digest(results):
        return b"".join(part.digest(result) for part, result in zip(parts, results))

    return Op(kind, label, run, check, digest)


class Workload:
    name = ""
    # set-ups timed per run (the workload process plus fresh interpreters);
    # short set-ups are noisy, so they get more samples
    setup_samples = 11
    # trace summaries written by child processes (only the cli workload has any)
    child_summaries: tuple | list = ()

    def inputs(self) -> dict:
        raise NotImplementedError

    def warm(self) -> None:
        raise NotImplementedError

    def cycles(self, seed: int):
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Run-level checks over all operations; returns failure messages."""
        return []

    def report(self) -> dict:
        return {}


# -- estimator -------------------------------------------------------------------

class Estimator(Workload):
    """Replicated sample-and-estimate experiments at M = 2000.

    R = 15 replicas make a poly:3 operation about 0.1 s, so the tail of a
    15 s run (about 150 operations) falls near the 90th percentile of the
    poly:3 operations, and the eigen:2 third of each cycle puts the median
    at their lower quartile.  At R = 5 (about 40 ms) the tail sat at the
    97th percentile and measured bursts of load from other tenants of the
    host.
    """

    name = "estimator"
    M = 2000
    R = 15
    WIDTHS = (0.1, 10.0)
    # poly:3 is the CLI default; eigen:2 is the control for bump-only kernels
    STATES = (("poly", 3), ("poly", 3), ("eigen", 2))
    POOLED_RANGE = (0.8, 1.3)
    POOLED_MIN_DOF = 400

    def __init__(self):
        self.pooled_num = 0.0
        self.pooled_dof = 0

    def inputs(self):
        return {"M": self.M, "R": self.R, "states": ["poly:3", "poly:3", "eigen:2"],
                "width_range": list(self.WIDTHS), "width_draw": "log-spaced golden-ratio sequence"}

    @staticmethod
    def _state(key):
        return wp.Polynomial(key[1]) if key[0] == "poly" else wp.Eigen(key[1])

    def warm(self):
        pass  # sampling, likelihood and fi_position keep no caches: set-up is the import

    def cycles(self, seed):
        rng = np.random.default_rng(seed)
        widths = [_spread_widths(rng, *self.WIDTHS) for _ in self.STATES]
        while True:
            yield [self._op(key, next(w), int(rng.integers(2**31))) for key, w in zip(self.STATES, widths)]

    def _op(self, key, a, seed):
        state = self._state(key)
        cfg = wp.WellConfig(a)
        qsnr = checks.qsnr_poly(key[1]) if key[0] == "poly" else checks.qsnr_eigen(key[1])

        def run():
            return wp.inference.crlb_experiment(state, cfg, self.M, self.R, seed)

        def check(res):
            est = np.array(res.estimates, dtype=float)
            require(est.size == self.R, f"{est.size} estimates, expected {self.R}")
            for r, value in enumerate(est):
                # replica streams are derived from (seed, replica) as documented
                child = int(np.random.SeedSequence([seed, r]).generate_state(1, np.uint64)[0])
                batch = wp.inference.sample_positions(state, cfg, self.M, child)
                checks.check_likelihood_maximum(key, batch.outcomes, float(value), a)
            ss = float(np.sum((est - est.mean()) ** 2))
            close(res.mean, float(est.mean()), 1e-12, what="mean")
            close(res.crlb_ratio, self.M * ss / (self.R - 1) * qsnr / a**2, 1e-6, what="crlb_ratio")
            self.pooled_num += self.M * ss * qsnr / a**2
            self.pooled_dof += self.R - 1

        return Op(f"crlb_experiment {key[0]}:{key[1]}", f"crlb_experiment({key[0]}:{key[1]}, a={a!r}, seed={seed})", run, check,
                  lambda res: _floats(*res.estimates, res.crlb_ratio))

    def pooled_ratio(self):
        return self.pooled_num / self.pooled_dof if self.pooled_dof else float("nan")

    def finish(self):
        ratio = self.pooled_ratio()
        lo, hi = self.POOLED_RANGE
        if self.pooled_dof >= self.POOLED_MIN_DOF and not lo <= ratio <= hi:
            return [f"pooled crlb_ratio {ratio:.4f} over {self.pooled_dof} degrees of freedom "
                    f"outside [{lo}, {hi}]"]
        return []

    def report(self):
        return {"pooled_crlb_ratio": self.pooled_ratio(), "pooled_dof": self.pooled_dof,
                "pooled_range": list(self.POOLED_RANGE),
                "pooled_check_applies": self.pooled_dof >= self.POOLED_MIN_DOF}


# -- evolution ---------------------------------------------------------------------

class Evolution(Workload):
    """Evolved-information points over seeded times at three basis sizes.

    N=1600 points carry the weight: there each qfi_time state gets four
    points per cycle, so a cycle holds 27 points and both the median and the
    tail fall among the N=1600 qfi_time points, where the N^2 tables
    dominate.  On a shared host the N=400 points (arrays the size of a
    cache) and the parabolic rows vary most from run to run, and a median
    among them did not repeat.
    """

    name = "evolution"
    setup_samples = 3
    SIZES = (100, 400, 1600)
    TIMES = (0.0, 2.0)
    WIDTH = 1.0
    CUSTOM_LEVELS = 12
    KINDS = ("poly:3", "super", "parabolic", "custom", "parabolic-row")
    REPEATS_1600 = {"poly:3": 4, "super": 4, "parabolic": 4, "custom": 4, "parabolic-row": 1}

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.alpha = float(rng.uniform(0.05, 1.5))
        coeff = rng.normal(size=self.CUSTOM_LEVELS) / np.arange(1, self.CUSTOM_LEVELS + 1) ** 2
        coeff /= math.sqrt(math.fsum(coeff * coeff))
        self.custom = tuple(float(c) for c in coeff)

    def inputs(self):
        return {"N": list(self.SIZES), "residual_N": "2N", "time_range": list(self.TIMES),
                "points_per_cycle": {n: {k: self._repeats(k, n) for k in self.KINDS} for n in self.SIZES},
                "width": self.WIDTH, "qfi_time_states": ["poly:3", f"super:1:2:{self.alpha!r}",
                                                         "parabolic", "custom"],
                "custom_levels": self.CUSTOM_LEVELS}

    def _state(self, kind):
        return {"poly:3": lambda: wp.Polynomial(3), "super": lambda: wp.Superposition(1, 2, self.alpha),
                "parabolic": wp.Parabolic, "custom": lambda: wp.Custom(self.custom)}[kind]()

    def warm(self):
        for size in self.SIZES:
            for kind in ("poly:3", "super", "parabolic", "custom"):
                wp.states.amplitudes(self._state(kind), wp.WellConfig(self.WIDTH, size))

    def _repeats(self, kind, size):
        return self.REPEATS_1600[kind] if size == 1600 else 1

    def cycles(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            yield [self._op(kind, size, float(rng.uniform(*self.TIMES)))
                   for size in self.SIZES for kind in self.KINDS for _ in range(self._repeats(kind, size))]

    def _op(self, kind, size, t):
        a = self.WIDTH
        cfg = wp.WellConfig(a, size)
        if kind == "parabolic-row":
            # one row of `wellprobe time`: the series value and its N-vs-2N residual
            def run():
                q = a * a * wp.dynamics.qfi_parabolic_time(cfg, t)
                return q, wp.dynamics.truncation_residual(cfg, t, size, 2 * size)

            def check(res):
                q_n = checks.parabola_series_qfi(size, t, a)
                q_2n = checks.parabola_series_qfi(2 * size, t, a)
                close(res[0], a * a * q_n, 1e-9, what="parabolic qsnr")
                close(res[1], abs(q_2n - q_n) / abs(q_2n), 1e-6, 1e-13, what="residual")

            return Op(f"parabolic row N={size}", f"parabolic row(N={size}, t={t!r})", run, check,
                      lambda res: _floats(*res))

        state = self._state(kind)

        def run():
            return wp.dynamics.qfi_time(wp.EvolvedState(state, t, cfg))

        def check(res):
            f = wp.states.amplitudes(state, cfg).coefficients
            checks.check_amplitudes(_amplitude_key(state), f)
            support = np.flatnonzero(f)
            close(res, checks.evolved_qfi(f[support], support + 1, t, a), 1e-9, what="qfi_time")

        return Op(f"qfi_time {kind} N={size}", f"qfi_time({kind}, N={size}, t={t!r})", run, check,
                  lambda res: _floats(res))


# -- survey ------------------------------------------------------------------------

class Survey(Workload):
    """Static reports and optimal-measurement operators, interleaved with
    entangled-probe figures of merit.

    A cycle is two static operations and one entangled operation.  A static
    operation makes PASSES passes over every state family: report and
    sld_matrix per state, each at the next width of the sequence.  The
    entangled operation makes 2 * PASSES rounds of the four entangled calls,
    which keeps four entangled calls per pass as in a plain interleaving.

    A single (state, width) takes about a millisecond; operations that small
    put the tail of a run at its 99th percentile, where bursts of load from
    other tenants of the host set it.  A static operation takes about 0.1 s,
    so the tail (about 200 operations in 15 s) falls near the 92nd
    percentile of the static operations, and the light entangled third of
    each cycle puts the median at their lower quartile.  Adaptive quadrature
    costs step with the width, and spreading each operation's widths over
    the range keeps operations alike.

    This workload is not listed in BENCHMARK.json: its many small numpy
    calls slow down about twice as much as the estimator's when the shared
    host is busy, and its run-to-run spread exceeds the benchmark's bounds
    (see README.md).  It still runs, with all its checks, by name.
    """

    name = "survey"
    N = 50
    WIDTHS = (0.1, 10.0)
    EXTREME = (1e-150, 1e150)
    STATES = ("eigen:1", "eigen:3", "super:1:2", "super:2:5", "poly:1", "poly:3", "poly:6",
              "parabolic", "custom")
    ENTANGLED = ("grid:eigen", "grid:polynomial", "ghz", "w3")
    CUSTOM_LEVELS = 8
    PASSES = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.defects: list[dict] = []
        self.defect_count = 0

    def inputs(self):
        return {"N": self.N, "width_range": list(self.WIDTHS),
                "width_draw": "log-spaced golden-ratio sequence, next width per state",
                "states": list(self.STATES), "entangled": list(self.ENTANGLED),
                "custom_levels": self.CUSTOM_LEVELS, "passes_per_static_op": self.PASSES,
                "rounds_per_entangled_op": 2 * self.PASSES,
                "cycle": ["survey static", "survey static", "survey entangled"],
                "extreme_width_range": list(self.EXTREME),
                "extreme_width_share_of_timed_ops": 0.0,
                "extreme_width_probes_per_run": len(self.STATES)}

    def _state(self, kind, rng):
        name, _, rest = kind.partition(":")
        if name == "eigen":
            return wp.Eigen(int(rest))
        if name == "poly":
            return wp.Polynomial(int(rest))
        if name == "parabolic":
            return wp.Parabolic()
        if name == "super":
            n, m = (int(v) for v in rest.split(":"))
            return wp.Superposition(n, m, float(rng.uniform(0.05, 1.5)))
        coeff = rng.normal(size=self.CUSTOM_LEVELS)
        coeff /= math.sqrt(math.fsum(coeff * coeff))
        return wp.Custom(tuple(float(c) for c in coeff))

    def warm(self):
        rng = np.random.default_rng(0)
        for kind in self.STATES:
            wp.states.amplitudes(self._state(kind, rng), wp.WellConfig(1.0, self.N))

    def cycles(self, seed):
        rng = np.random.default_rng(seed)
        widths = _spread_widths(rng, *self.WIDTHS)
        while True:
            yield [self._static_passes(widths, rng), self._static_passes(widths, rng),
                   self._entangled_rounds(rng)]

    def _static_passes(self, widths, rng):
        parts = [self._static_op(self._state(kind, rng), next(widths))
                 for _ in range(self.PASSES) for kind in self.STATES]
        return _combined("survey static", f"{self.PASSES} passes of report+sld: "
                         + ", ".join(p.label for p in parts), parts)

    def _entangled_rounds(self, rng):
        parts = [self._entangled_op(kind, rng) for _ in range(2 * self.PASSES) for kind in self.ENTANGLED]
        return _combined("survey entangled", f"{2 * self.PASSES} rounds of entangled calls: "
                         + ", ".join(p.label for p in parts), parts)

    @staticmethod
    def _reference_qsnr(state) -> float:
        if isinstance(state, wp.Eigen):
            return checks.qsnr_eigen(state.n)
        if isinstance(state, wp.Superposition):
            return checks.qsnr_super(state.n, state.m, state.alpha)
        if isinstance(state, wp.Polynomial):
            return checks.qsnr_poly(state.p)
        if isinstance(state, wp.Parabolic):
            return checks.QSNR_PARABOLA
        f = np.array(state.coefficients)
        b, c = checks.square_tables(f.size)
        return 4.0 * float(f @ c @ f - (f @ b @ f) ** 2)

    def _static_op(self, state, a):
        cfg = wp.WellConfig(a, self.N)

        def run():
            return wp.metrology.report(state, cfg), wp.metrology.sld_matrix(state, cfg)

        def check(res):
            rep, sld = res
            close(rep.qsnr, self._reference_qsnr(state), 1e-7, what="qsnr")
            close(rep.qsnr, a * a * rep.qfi, 1e-12, what="qsnr vs a^2 qfi")
            # position measurement is optimal for real states; MetrologyReport's slack
            close(rep.fi_position, rep.qfi, 1e-7, what="fi_position vs qfi")
            require(rep.fi_energy == 0.0, f"fi_energy {rep.fi_energy!r} != 0")
            require(rep.truncation == self.N, f"truncation {rep.truncation}")
            f = wp.states.amplitudes(state, cfg).coefficients
            checks.check_amplitudes(_amplitude_key(state), f)
            b, _ = checks.square_tables(self.N)
            d = b @ f / a
            ref = 2.0 * (np.outer(f, d) + np.outer(d, f))
            require(sld.shape == ref.shape, f"sld shape {sld.shape}")
            scale = float(np.abs(ref).max())
            require(float(np.abs(sld - ref).max()) <= 1e-12 * scale, "sld_matrix differs from 2(|f><d|+|d><f|)")

        def digest(res):
            rep, sld = res
            return _floats(rep.qfi, rep.fi_position, rep.fi_energy, rep.qsnr) + sld.tobytes()

        return Op(f"report+sld {type(state).__name__}", f"report+sld({state!r}, a={a!r})", run, check, digest)

    def _entangled_op(self, kind, rng):
        if kind.startswith("grid:"):
            family = kind[5:]
            lo = int(rng.integers(1, 5))
            idx = list(range(lo, lo + int(rng.integers(8, 15))))

            def run():
                return wp.entangled.entanglement_gain_grid(family, idx)

            def check(grid):
                require(grid.shape == (len(idx), len(idx)), f"grid shape {grid.shape}")
                for (i, p), (j, q) in itertools.product(enumerate(idx), repeat=2):
                    if p == q:
                        require(math.isnan(grid[i, j]), "diagonal is not NaN")
                    elif family == "eigen":
                        ref = checks.branch_qsnr(checks.pair_branches(p, q)) / (
                            checks.qsnr_eigen(p) + checks.qsnr_eigen(q))
                        close(grid[i, j], ref, 1e-12, what=f"eigen gain ({p},{q})")
                    else:
                        ref = checks.qsnr_poly_pair_paper(p, q) / (checks.qsnr_poly(p) + checks.qsnr_poly(q))
                        close(grid[i, j], ref, 1e-12, what=f"poly gain ({p},{q})")

            return Op(f"gain_grid {family}", f"entanglement_gain_grid({family}, {idx[0]}..{idx[-1]})", run, check,
                      lambda grid: grid.tobytes())
        if kind == "ghz":
            levels = tuple(int(v) for v in rng.choice(np.arange(1, 9), size=int(rng.integers(3, 5)),
                                                      replace=False))
            perms = [p for p in itertools.permutations(levels) if p != levels]

            def run():
                return [wp.entangled.qsnr_ghz(wp.GhzSpec(levels, p)) for p in perms]

            def check(values):
                require(len(values) == len(perms), "missing permutations")
                for p, q in zip(perms, values):
                    close(q, checks.branch_qsnr((levels, p)), 1e-12, what=f"ghz {levels}->{p}")

            return Op("qsnr_ghz", f"qsnr_ghz(all permutations of {levels})", run, check, lambda v: _floats(*v))
        n1, n2 = (int(v) for v in rng.choice(np.arange(1, 9), size=2, replace=False))

        def run():
            return wp.entangled.qsnr_w3(n1, n2)

        def check(q):
            close(q, checks.branch_qsnr(checks.w3_branches(n1, n2)), 1e-12, what="w3")

        return Op("qsnr_w3", f"qsnr_w3({n1}, {n2})", run, check, lambda q: _floats(q))

    def finish(self):
        """Run each state once at an extreme width; failures are a known defect.

        These run after the timed loop and are reported apart from it, so the
        defect shows on every run without making timed operations fail.
        """
        rng = np.random.default_rng([self.seed, 2])
        for kind in self.STATES:
            state = self._state(kind, rng)
            op = self._static_op(state, _log_uniform(rng, *self.EXTREME))
            self.defect_count += 1
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    op.check(op.run())
            except Exception as exc:  # a defect may surface as any exception
                self.defects.append({"op": op.label, "error": f"{type(exc).__name__}: {exc}"})
        return []

    def report(self):
        return {"extreme_width_probes": self.defect_count,
                "extreme_width_failures": len(self.defects),
                "extreme_width_failed_inputs": self.defects}


# -- cli ---------------------------------------------------------------------------

class Cli(Workload):
    """Fresh-process invocations of the wellprobe command line."""

    name = "cli"
    WIDTHS = (0.1, 10.0)

    def __init__(self, seed: int, root: str):
        rng = np.random.default_rng([seed, 3])
        w = [f"{_log_uniform(rng, *self.WIDTHS):.6g}" for _ in range(4)]
        self.invocations = [
            ["static", "--state", "eigen:1", "--state", "poly:1", "--a", w[0]],
            ["energy", "--nmax", "30"],
            ["time", "--a", f"{w[1]},{w[2]}", "--t", "0:0.5:26"],
            ["entangled", "--family", "poly", "--range", "2:15"],
            ["entangled", "--family", "eigen", "--range", "2:15"],
            ["montecarlo", "--state", "poly:3", "--a", w[3], "--M", "200", "--replicas", "30",
             "--seed", str(seed)],
            ["--truncation", "400", "time", "--t", "0:2:101"],
        ]
        self.root = root
        self.trace_dir = None
        self.child_summaries = []
        self.import_s: list[float] = []
        self.time_rows = 0
        self.time_series_evals = 0
        self._expected: dict = {}

    def inputs(self):
        return {"invocations": [" ".join(v) for v in self.invocations], "width_range": list(self.WIDTHS),
                "process": "fresh interpreter per invocation"}

    def warm(self):
        import wellprobe.cli  # noqa: F401  (set-up of a CLI process is its import)

    def cycles(self, seed):
        count = itertools.count()
        while True:
            yield [self._op(argv, next(count)) for argv in self.invocations]

    def _op(self, argv, index):
        def run():
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py")]
            if self.trace_dir:
                cmd += ["--trace-to", os.path.join(self.trace_dir, f"cli-{index}.json")]
            return subprocess.run(cmd + ["--"] + argv, cwd=self.root, capture_output=True, text=True)

        def check(proc):
            require(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            header, rows = self.expected(tuple(argv))
            checks.check_csv(proc.stdout, header, rows)
            if self.trace_dir:
                self._collect(os.path.join(self.trace_dir, f"cli-{index}.json"), argv, len(rows))

        return Op(" ".join(argv), " ".join(argv), run, check, lambda proc: proc.stdout.encode())

    def _collect(self, path, argv, rows):
        import json
        with open(path) as fh:
            data = json.load(fh)
        self.import_s.append(data["import_s"])
        self.child_summaries.append(data["summary"])
        if "time" in argv:
            self.time_rows += rows
            self.time_series_evals += data["summary"]["calls"].get("dynamics.qfi_parabolic_time", 0)

    def expected(self, argv: tuple):
        """Header and rows the library gives for one invocation (memoized)."""
        if argv not in self._expected:
            self._expected[argv] = _cli_reference(list(argv))
        return self._expected[argv]


def _grid(text: str) -> list[float]:
    if ":" in text:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    return [float(v) for v in text.split(",")]


def _cli_reference(argv: list[str]):
    truncation = 50
    if argv[0] == "--truncation":
        truncation, argv = int(argv[1]), argv[2:]
    cmd, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    m = wp.metrology
    if cmd == "static":
        states = [argv[i + 1] for i, tok in enumerate(argv) if tok == "--state"]
        rows = []
        for text in states:
            kind, n = text.split(":")
            state = wp.Eigen(int(n)) if kind == "eigen" else wp.Polynomial(int(n))
            for a in _grid(opts["--a"]):
                cfg = wp.WellConfig(a, truncation)
                qfi = m.qfi_static(state, cfg)
                rows.append([text, a, qfi, m.fi_position(state, cfg), m.fi_energy(state, cfg), a * a * qfi])
        return ["state", "a", "qfi", "fi_position", "fi_energy", "qsnr"], rows
    if cmd == "energy":
        rows = []
        for n in range(1, int(opts["--nmax"]) + 1):
            energy = 0.5 * (n * math.pi) ** 2
            # bump order with the same mean energy: 8p^2 + (6 - 4E)p + (1 + E) = 0
            disc = (4 * energy - 6) ** 2 - 32 * (1 + energy)
            p = (4 * energy - 6 + math.sqrt(disc)) / 16 if disc >= 0 else 0.0
            rows.append([energy, m.qsnr_eigen(n), m.qsnr_polynomial(p) if p >= 1 else ""])
        return ["energy", "qsnr_eigen", "qsnr_poly"], rows
    if cmd == "time":
        rows = []
        for a in _grid(opts.get("--a", "1")):
            cfg = wp.WellConfig(a, truncation)
            for t in _grid(opts["--t"]):
                rows.append([a, t, a * a * wp.dynamics.qfi_parabolic_time(cfg, t),
                             wp.dynamics.truncation_residual(cfg, t, truncation, 2 * truncation)])
        return ["a", "t", "qsnr", "residual"], rows
    if cmd == "entangled":
        family = opts["--family"]
        lo, hi = (int(v) for v in opts["--range"].split(":"))
        idx = list(range(lo, hi + 1))
        lib = "polynomial" if family == "poly" else "eigen"
        grid = wp.entangled.entanglement_gain_grid(lib, idx)
        single = m.qsnr_polynomial if family == "poly" else m.qsnr_eigen
        joint = wp.entangled.qsnr_two_polynomial if family == "poly" else wp.entangled.qsnr_two_eigen
        rows = []
        for i, p in enumerate(idx):
            for j, q in enumerate(idx):
                q_sum = single(p) + single(q)
                if p == q:
                    rows.append([family, str(p), str(q), "", q_sum, ""])
                else:
                    rows.append([family, str(p), str(q), joint(p, q), q_sum, float(grid[i, j])])
        return ["kind", "i", "j", "q_joint", "q_sum", "gamma"], rows
    if cmd == "montecarlo":
        state = wp.Polynomial(int(opts["--state"].split(":")[1]))
        a, M, R, seed = float(opts["--a"]), int(opts["--M"]), int(opts["--replicas"]), int(opts["--seed"])
        res = wp.inference.crlb_experiment(state, wp.WellConfig(a, truncation), M, R, seed)
        return (["state", "a", "M", "replicas", "variance", "crlb_ratio"],
                [[opts["--state"], a, str(M), str(R), res.variance, res.crlb_ratio]])
    raise ValueError(f"no reference for {argv}")


def make(name: str, seed: int, root: str) -> Workload:
    if name == "estimator":
        return Estimator()
    if name == "evolution":
        return Evolution(seed)
    if name == "survey":
        return Survey(seed)
    if name == "cli":
        return Cli(seed, root)
    raise KeyError(name)

