"""Construction-time array checks and the tolerances shared by several modules."""

from __future__ import annotations

import numpy as np

#: largest accepted max |M - M^dag| of a Hermitian or symmetric input
HERMITICITY_TOL = 1e-12

#: quadrature norm must be this close to 1 where a normalized state is required
NORM_TOL = 1e-4


def hermiticity_residual(array: np.ndarray) -> float:
    """max |M - M^dag| of a finite square array."""
    return float(np.abs(array - array.conj().T).max())


def store_validated(obj, attr: str, shape: tuple, dtype, name: str, hermitian: bool = False) -> None:
    """Check field `attr` of frozen dataclass `obj` and replace it by a read-only, C-contiguous array.

    With `hermitian`, stores the exact Hermitian (real: symmetric) part.

    Raises:
        ValueError: on a shape other than `shape`, a non-finite entry, or,
            with `hermitian`, a residual max |M - M^dag| above HERMITICITY_TOL.
    """
    array = np.asarray(getattr(obj, attr), dtype=dtype)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} contains non-finite values")
    residual = hermiticity_residual(array) if hermitian else 0.0
    if residual > HERMITICITY_TOL:
        kind, dag = ("Hermitian", "dag") if np.iscomplexobj(array) else ("symmetric", "T")
        raise ValueError(f"{name} not {kind}: max |M - M^{dag}| = {residual:.3e}")
    if residual:
        out = np.add(array, array.conj().T, order="C")
        out *= 0.5
    else:  # exactly Hermitian already, or not required to be
        out = np.array(array, order="C")
    out.setflags(write=False)
    object.__setattr__(obj, attr, out)
