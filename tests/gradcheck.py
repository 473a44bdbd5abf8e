"""Central-difference gradient check over a name -> float64 array dict of
parameters, with the flat view of the parameters it probes through."""

import numpy as np

from keynodes.errors import DataError, ShapeError


def numel(params: dict) -> int:
    return sum(v.size for v in params.values())


def flat(params: dict) -> np.ndarray:
    """Every parameter raveled and concatenated in the dict's order."""
    if not params:
        return np.zeros(0)
    return np.concatenate([v.ravel() for v in params.values()])


def set_flat(params: dict, vec: np.ndarray) -> None:
    """Overwrite each parameter, in place, with its slice of ``flat`` order."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.size != numel(params):
        raise ShapeError(f"flat vector length {vec.size} != numel {numel(params)}")
    pos = 0
    for name, v in params.items():
        params[name] = vec[pos : pos + v.size].reshape(v.shape).copy()
        pos += v.size


def grad_check(
    f,
    params: dict,
    eps: float = 1e-6,
    subsample_above: int = 10_000,
    subsample_frac: float = 0.05,
    rng_seed: int = 0,
    exclude: np.ndarray | None = None,
    atol: float = 1e-9,
) -> float:
    """Max relative error between f's analytic gradient and central differences.

    `f(params)` returns the scalar loss; `f(params, want_grad=True)` returns
    ``(loss, grads)`` with grads mapping every parameter name to its gradient
    array.  All components are swept when the parameters have at most
    `subsample_above` entries, otherwise a seeded random 5% subsample.
    `exclude` is an optional boolean mask over the flat view for components
    the caller knows sit on an activation kink.  Relative error uses
    denominator max(|a|, |b|, 1e-12); absolute differences within `atol`
    count as exact, since central differences carry roundoff noise of order
    eta*|loss|/eps that would otherwise swamp parameters whose true gradient
    is structurally zero.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise DataError(f"eps must be in [1e-7, 1e-3], got {eps}")
    _, grads = f(params, want_grad=True)
    analytic = np.concatenate(
        [np.asarray(grads[name], dtype=np.float64).ravel() for name in params]
    )
    base = flat(params)
    total = base.size
    if total <= subsample_above:
        indices = np.arange(total)
    else:
        rng = np.random.default_rng(rng_seed)
        k = max(1, int(round(subsample_frac * total)))
        indices = rng.choice(total, size=k, replace=False)
    if exclude is not None:
        indices = indices[~np.asarray(exclude).ravel()[indices]]

    probe = {k: v.copy() for k, v in params.items()}
    vec = base.copy()
    worst = 0.0
    for idx in indices:
        vec[idx] = base[idx] + eps
        set_flat(probe, vec)
        hi = float(f(probe))
        vec[idx] = base[idx] - eps
        set_flat(probe, vec)
        lo = float(f(probe))
        vec[idx] = base[idx]
        fd = (hi - lo) / (2.0 * eps)
        an = analytic[idx]
        if abs(fd - an) <= atol:
            continue
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-12)
        worst = max(worst, rel)
    return worst
