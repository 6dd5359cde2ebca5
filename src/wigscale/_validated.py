"""Construction-time checks of arrays and counts, and the tolerances shared by several modules."""

from __future__ import annotations

import math

import numpy as np

#: largest accepted max |M - M^dag| of a Hermitian or symmetric input
HERMITICITY_TOL = 1e-12

#: quadrature norm must be this close to 1 where a normalized state is required
NORM_TOL = 1e-4


#: rows per block of the Hermiticity residual; a matrix of at most this many rows takes one pass
_RESIDUAL_BLOCK = 64


def hermiticity_residual(array: np.ndarray) -> float:
    """max |M - M^dag| of a finite square array.

    |M - M^dag| is symmetric, so a large matrix is read in blocks of rows on and
    above the diagonal, which bounds the temporaries to one block of rows and
    returns the same value as the whole difference; a NaN in any block makes the
    residual NaN.
    """
    n = array.shape[0]
    if n <= _RESIDUAL_BLOCK:  # same value as the blocked loop, whose overhead slows scans of small matrices
        diff = array - array.conj().T
        # an exactly Hermitian array, as wigscale builds them, reads 0 without the |.| pass;
        # NaN is nonzero, and so is inf - inf, so a non-finite entry still takes the pass
        return float(np.abs(diff).max()) if np.count_nonzero(diff) else 0.0
    diffs = (array[start:start + _RESIDUAL_BLOCK, start:] - array[start:, start:start + _RESIDUAL_BLOCK].conj().T
             for start in range(0, n, _RESIDUAL_BLOCK))
    return float(np.max([np.abs(diff).max() for diff in diffs]))


def check_tolerance(tol) -> None:
    """Refuse a relative tolerance that is not finite and nonnegative.

    A NaN tolerance would call every matrix indefinite, a negative one would
    flag the vacuum, and an infinite one would call every matrix positive.

    Raises:
        ValueError: for NaN, an infinity or a negative value.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def whole_number(value, name: str, low: int) -> int:
    """int(value) for a whole number of at least `low`; an integral float such as 2.0 counts as its integer.

    Raises:
        ValueError: naming `name`, for a value below `low`, a fraction, NaN or an infinity.
    """
    if not value >= low:
        raise ValueError(f"{name} must be {'positive' if low else 'nonnegative'}, got {value}")
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def frozen(array: np.ndarray) -> np.ndarray:
    """Make an array its caller just allocated read-only, and return it.

    The one hand-over to store_validated: a read-only, C-contiguous array that
    owns its memory is stored without a copy, since no view can write to it.
    """
    array.setflags(write=False)
    return array


def store_validated(obj, attr: str, shape: tuple, dtype, name: str, hermitian: bool = False) -> None:
    """Check field `attr` of frozen dataclass `obj` and replace it by a read-only, C-contiguous array.

    With `hermitian`, stores the exact Hermitian (real: symmetric) part. Any
    other array is copied, unless it is read-only, C-contiguous and owns its
    memory, as the arrays that wigscale allocates and passes through `frozen`
    are: then no view can write to it, and it is stored as it is.

    Raises:
        ValueError: on complex entries for a real `dtype`, a shape other than `shape`, a non-finite
            entry, or, with `hermitian`, a residual max |M - M^dag| above HERMITICITY_TOL.
    """
    if dtype is float and np.iscomplexobj(getattr(obj, attr)):  # the cast would drop the imaginary parts
        raise ValueError(f"{name} must be real, got complex entries")
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
    elif array.flags.writeable or not (array.flags.owndata and array.flags.c_contiguous):
        out = np.array(array, order="C")  # exactly Hermitian already, or not required to be
    else:
        out = array
    object.__setattr__(obj, attr, frozen(out))
