"""Self-test of the benchmark's checks: a corrupted result counts as failed.

    python3 perfbench/selftest.py      (from the repository root)

Runs a few operations of every workload through the same timed loop the
benchmark uses, once as they are and once with each result corrupted by a
small amount, and asserts that every clean operation passes and every
corrupted one is counted as failed.  Exits 0 when all assertions hold.
"""

import dataclasses
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

import wellprobe as wp  # noqa: E402


class Fixed(workloads.Workload):
    """One cycle of the given operations, optionally with results corrupted."""

    def __init__(self, ops, corrupt=None):
        self.ops = ops
        self.corrupt = corrupt

    def cycles(self, seed):
        while True:
            if self.corrupt is None:
                yield self.ops
            else:
                yield [Op(op.kind, op.label, lambda op=op: self.corrupt(op.run()), op.check, op.digest)
                       for op in self.ops]


def expect(name, ops, corrupt):
    clean = harness.measure(Fixed(ops), 0, 1e-9)
    bad = harness.measure(Fixed(ops, corrupt), 0, 1e-9)
    assert clean.attempted == len(ops) and clean.failed == 0, (name, clean.failures)
    assert bad.attempted == len(ops) and bad.failed == len(ops), (name, bad.failed, len(ops))
    print(f"ok  {name}: {len(ops)} clean passed, {bad.failed} corrupted failed")


def expect_with_corrupt_amplitude(name, ops):
    """Ops fail while the program's poly expansion has one amplitude moved by 1e-5 relative.

    The corruption sits inside the program, so results and the oracles that
    take the program's amplitudes agree; only the amplitude reference
    catches it.
    """
    original = wp.states._poly_coefficients

    def corrupted(p, truncation):
        coeff = list(original(p, truncation))
        coeff[40] *= 1.0 + 1e-5
        return tuple(coeff)

    wp.states._poly_coefficients = corrupted
    try:
        bad = harness.measure(Fixed(ops), 0, 1e-9)
    finally:
        wp.states._poly_coefficients = original
    assert bad.attempted == len(ops) and bad.failed == len(ops), (name, bad.failed, len(ops))
    print(f"ok  {name}: {bad.failed} of {len(ops)} failed")


def shift_estimate(res):
    """Move one estimate off the likelihood maximum, keeping the summary consistent."""
    est = list(res.estimates)
    est[0] *= 1.0 + 1e-5
    arr = [float(v) for v in est]
    mean = sum(arr) / len(arr)
    var = sum((v - mean) ** 2 for v in arr) / (len(arr) - 1)
    return dataclasses.replace(res, estimates=tuple(est), mean=mean,
                               crlb_ratio=res.crlb_ratio * var / res.variance, variance=var)


def scale_report(pair):
    rep, sld = pair
    return dataclasses.replace(rep, qsnr=rep.qsnr * (1 + 1e-6), qfi=rep.qfi * (1 + 1e-6)), sld


def perturb_sld(pair):
    rep, sld = pair
    sld = sld.copy()
    sld[0, 1] += 1e-9 * abs(sld).max()
    return rep, sld


def last_digit(proc):
    text = proc.stdout.rstrip("\n")
    digit = text[-1]
    changed = text[:-1] + ("1" if digit != "1" else "2") + "\n"
    return subprocess.CompletedProcess(proc.args, proc.returncode, changed, proc.stderr)


def main():
    est = workloads.Estimator()
    expect("estimator: estimate off the likelihood maximum",
           [est._op(("poly", 3), 1.3, 7), est._op(("eigen", 2), 0.4, 8)], shift_estimate)
    est.pooled_num, est.pooled_dof = 2.0 * 1000, 1000
    assert est.finish(), "pooled crlb_ratio 2.0 must fail"
    print("ok  estimator: pooled crlb_ratio outside [0.8, 1.3] fails the run")

    evo = workloads.Evolution(0)
    expect("evolution: value moved by 1e-7",
           [evo._op(k, 100, 0.7) for k in ("poly:3", "super", "custom")],
           lambda q: q * (1 + 1e-7))
    expect("evolution: residual moved by 1e-4",
           [evo._op("parabolic-row", 100, 0.3)], lambda r: (r[0], r[1] * (1 + 1e-4)))
    expect_with_corrupt_amplitude("evolution: one poly:3 amplitude moved in the program",
                                  [evo._op("poly:3", 100, 0.7)])

    survey = workloads.Survey(0)
    static = [survey._static_op(s, 2.5) for s in
              (wp.Eigen(2), wp.Polynomial(3), wp.Parabolic(), wp.Superposition(1, 3, 0.4),
               wp.Custom((0.6, 0.0, 0.8)))]
    expect("survey: qsnr moved by 1e-6", static, scale_report)
    expect("survey: one sld entry moved", static, perturb_sld)
    expect_with_corrupt_amplitude("survey: one poly:3 amplitude moved in the program", [static[1]])
    rng = np.random.default_rng(0)
    ent = [survey._entangled_op(k, rng) for k in survey.ENTANGLED]
    expect("survey: entangled values moved by 1e-9",
           ent, lambda v: [x * (1 + 1e-9) for x in v] if isinstance(v, list) else v * (1 + 1e-9))

    cli = workloads.Cli(0, os.getcwd())
    ops = [cli._op(["energy", "--nmax", "5"], 0), cli._op(["static", "--state", "poly:2", "--a", "3"], 1)]
    expect("cli: last printed digit changed", ops, last_digit)
    expect("cli: non-zero exit code", ops,
           lambda p: subprocess.CompletedProcess(p.args, 3, p.stdout, p.stderr))

    def boom():
        raise RuntimeError("raised")
    raising = Op("raise", "raise", boom, lambda r: None, lambda r: b"")
    stats = harness.measure(Fixed([raising]), 0, 1e-9)
    assert stats.failed == 1
    print("ok  an operation that raises is counted as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
