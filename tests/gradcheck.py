"""Central-finite-difference gradient checking against the tape.

The numeric side only ever calls the forward path, so it stays independent
of the backward implementation it verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from meladapt.autodiff import Tape, backward
from meladapt.errors import MelAdaptError


class NonDeterministicFunction(MelAdaptError):
    """Repeated evaluation of the checked function gave different values."""


@dataclass
class GradCheckReport:
    tol: float
    h: float
    max_rel_error: float = 0.0
    n_checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return self.max_rel_error < self.tol

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"grad check {status}: max rel error {self.max_rel_error:.3e} "
            f"(tol {self.tol:.1e}, {self.n_checked} coordinates, h {self.h:.1e})"
        ]
        for name, idx, a, n, err in self.failures[:10]:
            lines.append(f"  {name}[{idx}]: autodiff={a:.6e} numeric={n:.6e} err={err:.3e}")
        return "\n".join(lines)


def _rel_error(a, n):
    denom = max(abs(a), abs(n))
    if denom < 1e-6:
        return abs(a - n)
    return abs(a - n) / denom


def grad_check(f, tensors, h=1e-5, tol=1e-4, sample=None, rng=None):
    """Compare tape gradients of scalar `f(tensors)` with central differences.

    `tensors` maps name -> Tensor; every entry is treated as checkable. With
    `sample` set, at most that many coordinates per tensor are probed (pick a
    seeded `rng` for reproducibility); otherwise all coordinates are.
    Raises NonDeterministicFunction if two plain evaluations of `f` disagree.
    """
    base = float(f(tensors).data)
    again = float(f(tensors).data)
    if base != again:
        raise NonDeterministicFunction(
            f"f evaluated twice gave {base!r} then {again!r}"
        )

    for t in tensors.values():
        t.grad = None
        t.requires_grad = True
    with Tape() as tape:
        loss = f(tensors)
    backward(loss, tape)

    if rng is None:
        rng = np.random.default_rng(0)
    report = GradCheckReport(tol=tol, h=h)
    for name, t in tensors.items():
        flat = t.data.reshape(-1)
        gflat = (
            np.zeros_like(flat)
            if t.grad is None
            else np.asarray(t.grad).reshape(-1)
        )
        n_coords = flat.size
        if sample is not None and n_coords > sample:
            coords = rng.choice(n_coords, size=sample, replace=False)
        else:
            coords = range(n_coords)
        for i in coords:
            keep = flat[i]
            flat[i] = keep + h
            up = float(f(tensors).data)
            flat[i] = keep - h
            dn = float(f(tensors).data)
            flat[i] = keep
            numeric = (up - dn) / (2.0 * h)
            err = _rel_error(gflat[i], numeric)
            report.n_checked += 1
            if err > report.max_rel_error:
                report.max_rel_error = err
            if err >= tol:
                report.failures.append((name, int(i), float(gflat[i]), numeric, err))
    return report
