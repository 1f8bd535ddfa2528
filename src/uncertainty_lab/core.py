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

import math
import numbers
from dataclasses import asdict, dataclass
from typing import Any, Callable

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


def _check_real(name: str, value: Any, low: float) -> float:
    """``value`` as a float, or a ValidationError naming ``name`` unless it is a finite real > low."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not low < number < math.inf:
        raise ValidationError(f"{name} must be a finite number above {low}, got {value!r}")
    return number


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
            object.__setattr__(self, name, _check_real(name, value, 0.0))

    def to_json_dict(self) -> dict[str, float]:
        return asdict(self)


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
    downstream formula.  Supports ``+``, ``-``, unary ``-`` and real scaling,
    which preserve hermiticity; a result past the float range is refused.
    Every instance is also sized once, at construction (``_hold``), for the
    commuting guard and the range check of ``moments``.
    """

    __slots__ = ("_matrix", "_sized")

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
        self._hold(arr)

    @classmethod
    def _wrap(cls, matrix: np.ndarray) -> "Observable":
        # Fast path for matrices that are Hermitian by construction (sums,
        # real scalings of already-validated observables).
        obj = object.__new__(cls)
        obj._hold(matrix)
        return obj

    def _hold(self, matrix: np.ndarray) -> None:
        """Freeze ``matrix`` as F and set ``_sized`` to ``(F 2^-k, ||F 2^-k||_F, k)``,
        with None for F 2^-k when k = 0: ``k = 0`` when ``||F||_F`` lies in
        (1e-60, 1e60), else ``_binade``'s exponent.  The squares of the scaled
        entries and size neither under- nor overflow."""
        frozen = _freeze(matrix)
        object.__setattr__(self, "_matrix", frozen)
        scaled, size, exponent = None, _norm(frozen), 0
        if not 1e-60 < size < 1e60:
            binade, exponent = _binade(frozen)
            if exponent:  # a zero matrix keeps k = 0: its copy would be itself
                scaled = Observable._wrap(binade)
                size = scaled._sized[1]
        object.__setattr__(self, "_sized", (scaled, size, exponent))

    def __reduce__(self) -> tuple:
        # rebuilt through _wrap, which re-freezes the buffer and sizes it again
        return type(self)._wrap, (self._matrix,)

    @classmethod
    def _finite(cls, result: Callable[[], np.ndarray]) -> "Observable":
        # a sum or scaling can leave the float range: refuse it, never hold inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            return cls._wrap(_as_complex_array(result(), 2))

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
        return Observable._finite(lambda: self._matrix + other._matrix)

    def __sub__(self, other: "Observable") -> "Observable":
        if not isinstance(other, Observable):
            return NotImplemented
        _check_same_dim(self.dim, other.dim)
        return Observable._finite(lambda: self._matrix - other._matrix)

    def __neg__(self) -> "Observable":
        return Observable._wrap(-self._matrix)

    def __mul__(self, scalar: float) -> "Observable":
        if not isinstance(scalar, numbers.Real):
            raise ValidationError(f"only real scalings preserve hermiticity, got {scalar!r}")
        return Observable._finite(lambda: self._matrix * _check_real("scalar", scalar, -math.inf))

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
        if not arr.any():
            raise ValidationError("cannot normalize the zero vector")
        # scaled exactly first, so that the sum of squares neither over- nor underflows
        arr = _binade(arr)[0]
        amps = arr / float(np.linalg.norm(arr))
        _check_unit(amps, tol)
        return cls._wrap(amps)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("StateVector is immutable")

    def __reduce__(self) -> tuple:
        return type(self)._wrap, (self._amps,)

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    @property
    def dim(self) -> int:
        return self._amps.shape[0]

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


def _binade(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """``(arr 2^-k, k)`` for a complex array: k = 0 when arr is zero, else the power
    of two that brings its largest |Re| or |Im| into [1/2, 1).  The scaling is exact
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 2)."""
    parts = np.ascontiguousarray(arr).view(np.float64)
    exponent = int(np.frexp(np.abs(parts).max())[1])
    return np.ldexp(parts, -exponent).view(np.complex128), exponent


def _norm(v: np.ndarray) -> float:
    """||v|| (Frobenius for a matrix) as sqrt(<v|v>): at d <= 64 about 40% of
    the cost of ``np.linalg.norm``, most of which is its Python-side dispatch."""
    return math.sqrt(np.vdot(v, v).real)


def _check_unit(amps: np.ndarray, tol: Tolerances) -> None:
    nrm = _norm(amps)
    if abs(nrm - 1.0) > tol.tol_norm:
        raise ValidationError(f"state is not normalized: ||amps|| = {nrm!r}")


def _check_int(name: str, value: Any, low: int) -> int:
    """``value`` as an int, or a ValidationError naming ``name`` unless it is an integer >= low."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


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
    return Observable._wrap(np.eye(_check_int("dim", dim, 2), dtype=np.complex128))


def _haar_amps(dim: int, rng: np.random.Generator) -> np.ndarray:
    """``haar_state``'s amplitudes, unwrapped: iid standard complex Gaussians over their norm."""
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)


def haar_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state: normalized vector of iid standard complex Gaussians."""
    return StateVector(_haar_amps(_check_int("dim", dim, 1), rng))


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
