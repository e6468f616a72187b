"""Finite-difference verification of the hand-written backward passes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GradCheckReport:
    """Outcome of checking one scalar function's analytic gradients."""

    op_name: str
    max_rel_error: float
    per_param_errors: dict = field(default_factory=dict)
    passed: bool = False
    tol: float = 0.0
    detail: str = ""

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.op_name:<36s} max_rel_err={self.max_rel_error:.3e} (tol {self.tol:g})"


def _rel_error(a: float, n: float) -> float:
    return abs(a - n) / max(1.0, abs(a), abs(n))


def _rejection(pname: str, grad, value) -> str:
    """Why an analytic gradient cannot be compared, or "" when it can."""
    if grad is None:
        return f"missing gradient for {pname!r}"
    if grad.shape != value.shape:
        return f"gradient shape {grad.shape} != param shape {value.shape} for {pname!r}"
    if not np.all(np.isfinite(grad)):
        return f"non-finite gradient for {pname!r}"
    return ""


EPS = 1e-4  # central-difference step
TOL = 1e-4  # largest relative error a passing check may show


def grad_check(fn, params: dict, name: str = "fn", max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare fn's analytic gradients with central differences.

    fn maps a dict of named float64 arrays to (scalar_loss, grads_dict).
    Every coordinate is checked unless max_coords_per_param caps the count,
    in which case a seeded subset is sampled per parameter. Non-finite
    values are reported as failures rather than raised.
    """
    rng = rng or np.random.default_rng(0)
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    try:
        loss, grads = fn(work)
    except FloatingPointError as exc:
        return GradCheckReport(name, float("inf"), {}, False, TOL, f"forward raised: {exc}")
    if not np.isfinite(loss):
        return GradCheckReport(name, float("inf"), {}, False, TOL, "non-finite loss")

    per_param: dict = {}
    max_err = 0.0
    detail = ""
    for pname, value in work.items():
        grad = grads.get(pname)
        grad = None if grad is None else np.asarray(grad, dtype=np.float64)
        rejected = _rejection(pname, grad, value)
        if rejected:
            per_param[pname] = max_err = float("inf")
            detail = rejected
            continue
        n_coords = value.size
        if max_coords_per_param is not None and n_coords > max_coords_per_param:
            coords = rng.choice(n_coords, size=max_coords_per_param, replace=False)
        else:
            coords = np.arange(n_coords)
        flat = value.reshape(-1)
        gflat = grad.reshape(-1)
        worst = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + EPS
            plus, _ = fn(work)
            flat[c] = orig - EPS
            minus, _ = fn(work)
            flat[c] = orig
            numeric = (plus - minus) / (2.0 * EPS)
            if not np.isfinite(numeric):
                worst = float("inf")
                detail = f"non-finite numeric gradient for {pname!r}[{c}]"
                break
            worst = max(worst, _rel_error(gflat[c], numeric))
        per_param[pname] = worst
        max_err = max(max_err, worst)

    return GradCheckReport(name, max_err, per_param, bool(max_err <= TOL), TOL, detail)


def probe_weights(shape, seed=123) -> np.ndarray:
    """Fixed pseudo-random loss weights; not all-ones so sign errors surface."""
    return np.random.default_rng(seed).normal(size=shape)
