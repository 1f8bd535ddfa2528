"""Validated complex linear-algebra primitives shared by every other module.

Conventions used throughout the package:

* vectors and matrices are dense ``numpy`` arrays of ``complex128``;
* the inner product ``inner(u, v)`` is conjugate-linear in its *first*
  argument;
* a complex scalar serializes to JSON as a two-element array ``[re, im]``,
  a matrix as ``{"dim": d, "entries": [[...d rows of d pairs...]]}`` and a
  state as ``{"dim": d, "amps": [...d pairs...]}``.

All wrapper objects are immutable after construction: the underlying numpy
buffers are private copies with the writeable flag cleared, so instances can
be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

__all__ = [
    "CommutingPair",
    "DEFAULT_TOLERANCES",
    "DegenerateSpread",
    "DimensionMismatch",
    "DimensionTooSmall",
    "Observable",
    "StateVector",
    "Tolerances",
    "ValidationError",
    "commutator",
    "complex_from_pair",
    "complex_to_pair",
    "haar_state",
    "identity",
    "inner",
    "observable_from_json_dict",
    "observable_to_json_dict",
    "state_from_json_dict",
    "state_to_json_dict",
    "validate_observable",
]


class ValidationError(ValueError):
    """Input fails a structural requirement (shape, finiteness, hermiticity, norm)."""


class DimensionMismatch(ValueError):
    """Operands live in spaces of different dimension."""


class DegenerateSpread(ValueError):
    """A correlation coefficient was requested where a standard deviation vanishes."""


class CommutingPair(ValueError):
    """An operation that presupposes a non-commuting pair got commuting observables."""


class DimensionTooSmall(ValueError):
    """The requested search needs dimension at least 3."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used by validation and classification.

    tol_herm   -- admissible entrywise hermiticity defect of an observable,
                  relative to its largest entry when that exceeds 1
    tol_norm   -- admissible deviation of a state norm from 1
    tol_zero   -- threshold under which a scalar counts as (numerically) zero
    eps_spread -- threshold under which a standard deviation counts as zero
    """

    tol_herm: float = 1e-12
    tol_norm: float = 1e-12
    tol_zero: float = 1e-10
    eps_spread: float = 1e-6

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not (np.isfinite(value) and value > 0.0):
                raise ValidationError(f"tolerance {name} must be strictly positive, got {value!r}")

    def to_json_dict(self) -> dict[str, float]:
        return {k: float(v) for k, v in asdict(self).items()}


DEFAULT_TOLERANCES = Tolerances()


def _as_complex_array(raw: Any, ndim: int) -> np.ndarray:
    arr = np.asarray(raw, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValidationError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("entries must be finite (no NaN/Inf)")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.flags.writeable = False
    return out


class Observable:
    """A d x d complex matrix, validated Hermitian at construction.

    Hermiticity is enforced once here rather than re-checked by every
    downstream formula.  Supports ``+``, ``-``, unary ``-`` and scaling by a
    real number, all of which preserve hermiticity.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: Any, tol: Tolerances = DEFAULT_TOLERANCES):
        arr = _as_complex_array(matrix, 2)
        n, m = arr.shape
        if n != m:
            raise ValidationError(f"matrix must be square, got shape {arr.shape}")
        if n < 2:
            raise ValidationError(f"observable dimension must be at least 2, got {n}")
        # judged relative to the largest entry, so the units of M do not matter;
        # the entries are only scanned when the defect exceeds tol_herm itself
        defect = float(np.max(np.abs(arr - arr.conj().T)))
        if defect > tol.tol_herm and defect > tol.tol_herm * float(np.max(np.abs(arr))):
            limit = tol.tol_herm * max(1.0, float(np.max(np.abs(arr))))
            raise ValidationError(
                f"matrix is not Hermitian: max |M[i,j] - conj(M[j,i])| = {defect:.3e} "
                f"> tol_herm * max(1, max |M[i,j]|) = {limit:.3e}"
            )
        object.__setattr__(self, "_matrix", _freeze(arr))

    @classmethod
    def _wrap(cls, matrix: np.ndarray) -> "Observable":
        # Fast path for matrices that are Hermitian by construction (sums,
        # real scalings of already-validated observables).
        obj = object.__new__(cls)
        object.__setattr__(obj, "_matrix", _freeze(matrix))
        return obj

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Observable is immutable")

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __add__(self, other: "Observable") -> "Observable":
        if not isinstance(other, Observable):
            return NotImplemented
        _check_same_dim(self.dim, other.dim)
        return Observable._wrap(self._matrix + other._matrix)

    def __sub__(self, other: "Observable") -> "Observable":
        if not isinstance(other, Observable):
            return NotImplemented
        _check_same_dim(self.dim, other.dim)
        return Observable._wrap(self._matrix - other._matrix)

    def __neg__(self) -> "Observable":
        return Observable._wrap(-self._matrix)

    def __mul__(self, scalar: float) -> "Observable":
        if isinstance(scalar, complex) and scalar.imag != 0.0:
            raise ValidationError("only real scalings preserve hermiticity")
        return Observable._wrap(self._matrix * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim})"


class StateVector:
    """A normalized complex d-vector representing a pure state."""

    __slots__ = ("_amps",)

    def __init__(self, amps: Any, tol: Tolerances = DEFAULT_TOLERANCES):
        arr = _as_complex_array(amps, 1)
        if arr.shape[0] < 1:
            raise ValidationError("state vector must have at least one amplitude")
        _check_unit(arr, tol)
        object.__setattr__(self, "_amps", _freeze(arr))

    @classmethod
    def _wrap(cls, amps: np.ndarray) -> "StateVector":
        # Fast path for amplitudes already checked finite and normalized
        # (the rows of a scan block, the result of ``normalized``).
        obj = object.__new__(cls)
        object.__setattr__(obj, "_amps", _freeze(amps))
        return obj

    @classmethod
    def normalized(cls, raw: Any, tol: Tolerances = DEFAULT_TOLERANCES) -> "StateVector":
        """Normalize a nonzero raw vector and wrap it, with the constructor's checks."""
        arr = _as_complex_array(raw, 1)
        # Outside this range of the largest |Re| or |Im| the sum of squares
        # would overflow or underflow, so rescale by it first, on the real
        # view (a complex division by a subnormal overflows).
        parts = np.ascontiguousarray(arr).view(np.float64)
        peak = float(np.abs(parts).max(initial=0.0))
        if peak == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        if not 1e-75 < peak < 1e75:
            arr = (parts / peak).view(np.complex128)
        amps = arr / float(np.linalg.norm(arr))
        _check_unit(amps, tol)
        return cls._wrap(amps)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("StateVector is immutable")

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    @property
    def dim(self) -> int:
        return self._amps.shape[0]

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


def _check_unit(amps: np.ndarray, tol: Tolerances) -> None:
    nrm = float(np.linalg.norm(amps))
    if abs(nrm - 1.0) > tol.tol_norm:
        raise ValidationError(f"state is not normalized: ||amps|| = {nrm!r}")


def _check_same_dim(da: int, db: int) -> None:
    if da != db:
        raise DimensionMismatch(f"dimension mismatch: {da} != {db}")


def _vector_of(v: Any) -> np.ndarray:
    if isinstance(v, StateVector):
        return v.amps
    return _as_complex_array(v, 1)


def inner(u: Any, v: Any) -> complex:
    """Inner product <u|v>, conjugate-linear in the first argument."""
    ua, va = _vector_of(u), _vector_of(v)
    _check_same_dim(ua.shape[0], va.shape[0])
    return complex(np.vdot(ua, va))


def commutator(a: Observable, b: Observable) -> np.ndarray:
    """AB - BA as a raw matrix.  For Hermitian A, B the result is anti-Hermitian."""
    _check_same_dim(a.dim, b.dim)
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def validate_observable(raw: Any, tol: Tolerances = DEFAULT_TOLERANCES) -> Observable:
    """Validate a raw square matrix and wrap it as an Observable."""
    return Observable(raw, tol)


def identity(dim: int) -> Observable:
    if dim < 2:
        raise ValidationError(f"observable dimension must be at least 2, got {dim}")
    return Observable._wrap(np.eye(dim, dtype=np.complex128))


def haar_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state: normalized vector of iid standard complex Gaussians."""
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector.normalized(raw)


# ---------------------------------------------------------------------------
# JSON encoding.  Complex scalars are [re, im] pairs; matrices are row-major.
# ---------------------------------------------------------------------------

def _pairs(raw: Any, shape: tuple[int, ...], rule: str) -> np.ndarray:
    """The complex array of ``shape`` nested in ``raw`` as [re, im] pairs of
    numbers, not bools (``rule`` words this); the wrappers check the values."""
    arr = np.array(raw, dtype=object)
    if arr.shape != shape + (2,):
        raise ValidationError(f"{rule}, got nesting of shape {arr.shape}")
    types = set(map(type, arr.flat))
    bad = sorted(t.__name__ for t in types if t is bool or not issubclass(t, (int, float)))
    if bad:
        raise ValidationError(f"{rule} of numbers, got {', '.join(bad)}")
    try:
        floats = arr.astype(np.float64)
    except OverflowError as exc:
        raise ValidationError(f"{rule} of numbers, got an integer too large for a float") from exc
    # a view, not re + 1j * im, keeps the sign of every zero
    return floats.view(np.complex128).reshape(shape)


def _pairs_from_json(obj: Any, kind: str, key: str, ndim: int) -> np.ndarray:
    """``obj[key]`` as ``ndim`` axes of length ``obj["dim"]``, not yet validated."""
    if not isinstance(obj, dict) or "dim" not in obj or key not in obj:
        raise ValidationError(f'{kind} JSON must be an object with "dim" and "{key}"')
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValidationError(f'"dim" must be an integer, got {dim!r}')
    rule = f'"{key}" must be {" by ".join([str(dim)] * ndim)} [re, im] pairs'
    return _pairs(obj[key], (dim,) * ndim, rule)


def _pairs_to_json(arr: np.ndarray) -> list:
    return np.stack((arr.real, arr.imag), -1).tolist()


def complex_to_pair(z: complex) -> list[float]:
    return _pairs_to_json(np.complex128(z))


def complex_from_pair(pair: Any) -> complex:
    return complex(_pairs(pair, (), "complex scalar must be a [re, im] pair"))


def observable_to_json_dict(a: Observable) -> dict[str, Any]:
    return {"dim": a.dim, "entries": _pairs_to_json(a.matrix)}


def observable_from_json_dict(obj: Any, tol: Tolerances = DEFAULT_TOLERANCES) -> Observable:
    return Observable(_pairs_from_json(obj, "observable", "entries", 2), tol)


def state_to_json_dict(phi: StateVector) -> dict[str, Any]:
    return {"dim": phi.dim, "amps": _pairs_to_json(phi.amps)}


def state_from_json_dict(obj: Any, tol: Tolerances = DEFAULT_TOLERANCES) -> StateVector:
    return StateVector(_pairs_from_json(obj, "state", "amps", 1), tol)
