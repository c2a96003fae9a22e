"""Dense complex linear algebra substrate.

Thin, contract-enforcing wrappers around numpy's LAPACK bindings.  One
gate, :func:`_checked`, reads each matrix, vector or point that a caller
passes to a public function of this module, ``polymatrix`` or ``solver``:
it promotes the argument to complex128, raises DimensionMismatch for a
wrong shape and NonFiniteInput for a non-finite entry.  Stacks are checked
for finiteness whole, apart from it: a polynomial's coefficients, the
matrices of :func:`inverse_stack` and the solver's stacked candidates;
:func:`eigensolve` takes arrays the package computed.  Every function is
deterministic for identical inputs.  Invertibility is decided on singular
values.  Every eigenvalue of the package comes from :func:`eigensolve`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonFiniteInput,
    SingularMatrix,
)

#: Relative singular-value cutoff used for rank decisions.
DEFAULT_TOL_RANK = 1e-10
#: Complex entries in one stacked temporary of a batched computation.  At
#: 64 KiB it stays below glibc's 128 KiB mmap threshold; fixed 1024-class
#: chunks raised the peak RSS of a CLI solve-then-verify run by about 2 MB.
CHUNK_ENTRIES = 4096


def chunk_size(entries_per_item: int) -> int:
    """Items per chunk so that a stack of them holds at most ``CHUNK_ENTRIES``."""
    return max(1, CHUNK_ENTRIES // entries_per_item)


def _checked(data, shape: tuple[int | None, ...], what: str) -> np.ndarray:
    """``data`` as a new complex128 array of ``shape``, every entry finite.

    A ``None`` in ``shape`` (``*`` in messages) takes any positive length.
    A wrong shape raises ``DimensionMismatch("{what} has shape {got},
    expected {want}")``; a non-finite entry raises NonFiniteInput.
    """
    a = np.array(data, dtype=np.complex128)
    if a.ndim != len(shape) or any(g < 1 or w not in (None, g) for g, w in zip(a.shape, shape)):
        want = str(tuple(shape)).replace("None", "*")
        raise DimensionMismatch(f"{what} has shape {a.shape}, expected {want}")
    if not np.isfinite(a).all():
        raise NonFiniteInput(f"{'vector' if a.ndim == 1 else 'matrix'} entries must be finite")
    return a


def _square(data) -> np.ndarray:
    a = _checked(data, (None, None), "matrix")
    return _checked(a, (len(a), len(a)), "matrix")


def inverse(m) -> tuple[np.ndarray, float]:
    """Matrix inverse together with the 2-norm condition number.

    Raises SingularMatrix when the smallest singular value is at or below
    ``DEFAULT_TOL_RANK`` times the largest one.
    """
    inv, cond, failures = inverse_stack(_square(m)[None])
    if failures[0] is not None:
        raise SingularMatrix(failures[0])
    return inv[0], float(cond[0])


def inverse_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Inverses and 2-norm condition numbers of a (K, n, n) stack of matrices.

    Member k is singular when its smallest singular value is at or below
    ``DEFAULT_TOL_RANK`` times its largest one; ``failures[k]`` then says so
    (the message :func:`inverse` raises), its condition number is inf and
    its inverse slot holds the identity, put in its place only when the
    stack has a singular member.  Other members have ``failures[k]`` None.
    """
    if not np.all(np.isfinite(stack)):
        raise NonFiniteInput("matrix entries must be finite")
    s = np.linalg.svd(stack, compute_uv=False)
    singular = s[:, -1] <= DEFAULT_TOL_RANK * s[:, 0]
    with np.errstate(all="ignore"):
        cond = s[:, 0] / s[:, -1]
    failures: list[str | None] = [None] * len(stack)
    if singular.any():
        stack = np.where(singular[:, None, None], np.eye(stack.shape[-1]), stack)
        cond[singular] = np.inf
        for k in np.flatnonzero(singular):
            failures[k] = (
                f"smallest singular value {s[k, -1]:.3e} <= {DEFAULT_TOL_RANK:.0e} * {s[k, 0]:.3e}"
            )
    return np.linalg.inv(stack), cond, failures


def _times_power_of_two(a: np.ndarray, q) -> np.ndarray:
    # a times 2^q, q broadcast against its float view: exact wherever the
    # product is normal, also where 2^q itself is not
    return np.ldexp(np.ascontiguousarray(a).view(np.float64), q).view(np.complex128)


def _binary_scaled(a: np.ndarray, axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    # a times 2^-e and e, per slice over axes, e the exponent of its largest real
    # or imaginary part
    a = np.ascontiguousarray(a)
    _, e = np.frexp(np.abs(a.view(np.float64)).max(axis=axes, keepdims=True))
    return _times_power_of_two(a, -e), np.squeeze(e, axis=axes)


def lex_key(z: complex) -> tuple[float, float]:
    """(real, imag) rounded at 12 significant digits of the value's modulus.

    Rounding at the scale of the whole value, not per component, snaps
    roundoff like 1e-17 + 1j to (0, 1) so orderings stay reproducible.
    """
    z = complex(z)
    re, im = z.real, z.imag
    scale = max(abs(re), abs(im))
    if scale == 0.0 or not math.isfinite(scale):
        return (re, im)
    decimals = 11 - math.floor(math.log10(scale))
    return (round(re, decimals), round(im, decimals))


def eigensolve(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eig(a)`` of a matrix or a stack: the package's one eigensolve.

    LAPACK's geev hitting its iteration cap is raised as ConvergenceFailure.
    """
    try:
        return np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolve: {exc}") from exc
