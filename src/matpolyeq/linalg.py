"""Dense complex linear algebra substrate.

Thin, contract-enforcing wrappers around numpy's LAPACK bindings.  One
gate, :func:`_checked`, reads each matrix, vector or point that a caller
passes to a public function of this module, ``polymatrix`` or ``solver``:
it promotes the argument to complex128, raises DimensionMismatch for a
wrong shape and NonFiniteInput for a non-finite entry.  Stacks are checked
for finiteness whole, apart from it: a polynomial's coefficients, the
matrices of :func:`inverse_stack` and the solver's stacked candidates;
:func:`eigensolve` and :func:`lex_argsort` take arrays the package computed.
Every function is deterministic for identical inputs.  Invertibility is
decided on singular values; eigenvalues come back in a fixed lexicographic
order so that downstream class enumeration is reproducible.
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


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    return _checked(data, (None, None), "matrix")


def _square(data) -> np.ndarray:
    a = as_matrix(data)
    return _checked(a, (len(a), len(a)), "matrix")


def inverse(m, tol_rank: float = DEFAULT_TOL_RANK) -> tuple[np.ndarray, float]:
    """Matrix inverse together with the 2-norm condition number.

    Raises SingularMatrix when the smallest singular value is at or below
    ``tol_rank`` times the largest one.
    """
    a = _square(m)
    inv, cond, failures = inverse_stack(a[None], tol_rank=tol_rank)
    if failures[0] is not None:
        raise SingularMatrix(failures[0])
    return inv[0], float(cond[0])


def inverse_stack(
    stack: np.ndarray, tol_rank: float = DEFAULT_TOL_RANK
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Inverses and 2-norm condition numbers of a (K, n, n) stack of matrices.

    Member k is singular when its smallest singular value is at or below
    ``tol_rank`` times its largest one; ``failures[k]`` then says so (the
    message :func:`inverse` raises), its condition number is inf and its
    inverse slot holds the identity, put in its place only when the stack
    has a singular member.  Other members have ``failures[k]`` None.
    """
    if not np.all(np.isfinite(stack)):
        raise NonFiniteInput("matrix entries must be finite")
    s = np.linalg.svd(stack, compute_uv=False)
    singular = s[:, -1] <= tol_rank * s[:, 0]
    with np.errstate(all="ignore"):
        cond = s[:, 0] / s[:, -1]
    failures: list[str | None] = [None] * len(stack)
    if singular.any():
        stack = np.where(singular[:, None, None], np.eye(stack.shape[-1]), stack)
        cond[singular] = np.inf
        for k in np.flatnonzero(singular):
            failures[k] = f"smallest singular value {s[k, -1]:.3e} <= {tol_rank:.0e} * {s[k, 0]:.3e}"
    return np.linalg.inv(stack), cond, failures


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


def lex_argsort(values) -> np.ndarray:
    """Indices sorting complex values lexicographically by :func:`lex_key`."""
    v = np.asarray(values, dtype=np.complex128)
    return np.array(sorted(range(len(v)), key=lambda i: lex_key(v[i])), dtype=int)


def eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors, sorted lexicographically.

    Returns ``(values, vectors)`` with ``vectors[:, k]`` the unit eigenvector
    for ``values[k]``; ordering is by (real, imag) after rounding to 12
    significant digits so repeated calls enumerate identically.
    """
    vals, vecs = eigensolve(np.linalg.eig, _square(m))
    order = lex_argsort(vals)
    return vals[order], vecs[:, order]


def eigensolve(solve, a: np.ndarray):
    """``solve(a)`` for ``np.linalg.eig`` or ``eigvals``, passed at each call.

    LAPACK's geev hitting its iteration cap is raised as ConvergenceFailure.
    """
    try:
        return solve(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolve: {exc}") from exc
