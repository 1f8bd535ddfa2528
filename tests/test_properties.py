"""Property-based checks of the algebraic identities behind the bounds."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import uncertainty_lab as ul


def _finite(lo=-2.0, hi=2.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def hermitian(draw, dim):
    flat = draw(
        st.lists(_finite(), min_size=2 * dim * dim, max_size=2 * dim * dim)
    )
    arr = np.array(flat[: dim * dim]) + 1j * np.array(flat[dim * dim:])
    m = arr.reshape(dim, dim)
    return ul.validate_observable((m + m.conj().T) / 2.0)


@st.composite
def state(draw, dim):
    flat = draw(st.lists(_finite(), min_size=2 * dim, max_size=2 * dim))
    raw = np.array(flat[:dim]) + 1j * np.array(flat[dim:])
    assume(np.linalg.norm(raw) > 1e-3)
    return ul.StateVector.normalized(raw)


@st.composite
def pair_and_state(draw):
    dim = draw(st.integers(min_value=2, max_value=5))
    return draw(hermitian(dim)), draw(hermitian(dim)), draw(state(dim))


@st.composite
def triple_and_state(draw):
    dim = draw(st.integers(min_value=2, max_value=5))
    return draw(hermitian(dim)), draw(hermitian(dim)), draw(hermitian(dim)), draw(state(dim))


@st.composite
def vectors(draw):
    dim = draw(st.integers(min_value=2, max_value=5))
    flat = draw(st.lists(_finite(), min_size=4 * dim, max_size=4 * dim))
    u = np.array(flat[:dim]) + 1j * np.array(flat[dim:2 * dim])
    v = np.array(flat[2 * dim:3 * dim]) + 1j * np.array(flat[3 * dim:])
    return u, v


@given(vectors())
def test_inner_conjugate_symmetry(uv):
    u, v = uv
    assert abs(ul.inner(u, v) - np.conj(ul.inner(v, u))) <= 1e-12


@given(pair_and_state())
def test_commutator_antisymmetry(abs_):
    a, b, _ = abs_
    assert np.array_equal(ul.commutator(a, b), -ul.commutator(b, a))


@given(pair_and_state())
def test_deviation_vector_orthogonal_to_state(abs_):
    a, _, phi = abs_
    dv = ul.deviation_vector(a, phi)
    assert abs(ul.inner(phi, dv.vec)) <= ul.DEFAULT_TOLERANCES.tol_zero


@given(pair_and_state(), _finite(-5.0, 5.0))
def test_std_dev_shift_invariance(abs_, c):
    a, _, phi = abs_
    shifted = a + c * ul.identity(a.dim)
    assert abs(ul.std_dev(shifted, phi) - ul.std_dev(a, phi)) <= 1e-12


@given(pair_and_state())
def test_correlation_conjugate_symmetry(abs_):
    a, b, phi = abs_
    assert abs(ul.correlation(a, b, phi) - np.conj(ul.correlation(b, a, phi))) <= 1e-10


@given(triple_and_state())
def test_correlation_additivity_in_second_slot(abbs):
    a, b1, b2, phi = abbs
    lhs = ul.correlation(a, b1 + b2, phi)
    rhs = ul.correlation(a, b1, phi) + ul.correlation(a, b2, phi)
    assert abs(lhs - rhs) <= 1e-10


@given(pair_and_state())
@settings(max_examples=150)
def test_bound_chain(abs_):
    a, b, phi = abs_
    rep = ul.evaluate(a, b, phi)  # raises on any internal inconsistency
    assert rep.hr_bound <= rep.schrodinger_bound + 1e-10
    assert abs(rep.schrodinger_bound - rep.general_bound) <= 1e-10
    assert rep.product >= rep.general_bound - 1e-10


@given(pair_and_state())
def test_pearson_in_unit_interval(abs_):
    a, b, phi = abs_
    try:
        r = ul.pearson(a, b, phi)
    except ul.DegenerateSpread:
        return  # undefined on eigenstates; nothing to assert
    assert 0.0 <= r <= 1.0


# Units: A -> sA and B -> tB with s, t log-uniform in [1e-6, 1e6].
_scales = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e)


def _classify_unless_commuting(a, b, phi):
    try:
        return ul.classify(a, b, phi)
    except ul.CommutingPair:
        return None  # the guard compares ||[A,B]|| with the absolute tol_zero


@given(pair_and_state(), _scales, _scales)
@settings(max_examples=150)
def test_internal_checks_do_not_depend_on_units(abs_, s, t):
    a, b, phi = abs_
    sa, tb = s * a, t * b
    # each call raises ArithmeticError if one of its internal checks fails
    ul.evaluate(sa, tb, phi)
    ul.sum_relations(sa, tb, phi)
    ul.correlation(sa, tb, phi)
    _classify_unless_commuting(sa, tb, phi)
    scaled = ul.correlation_record(sa, tb, phi).pearson
    unit = ul.correlation_record(a, b, phi).pearson
    if scaled is not None and unit is not None:
        assert abs(scaled - unit) <= 1e-8


def _haar_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated(u, f):
    m = u @ f.matrix @ u.conj().T
    return ul.validate_observable((m + m.conj().T) / 2.0)


@given(pair_and_state(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150)
def test_common_change_of_basis(abs_, seed):
    a, b, phi = abs_
    u = _haar_unitary(a.dim, seed)
    ua, ub, uphi = _rotated(u, a), _rotated(u, b), ul.StateVector.normalized(u @ phi.amps)
    before, after = ul.evaluate(a, b, phi), ul.evaluate(ua, ub, uphi)
    size_a = np.linalg.norm(a.matrix @ phi.amps)
    size_b = np.linalg.norm(b.matrix @ phi.amps)
    for field, size in (
        ("delta_a", size_a),
        ("delta_b", size_b),
        ("hr_bound", size_a * size_b),
        ("schrodinger_bound", size_a * size_b),
        ("general_bound", size_a * size_b),
    ):
        gap = abs(getattr(before, field) - getattr(after, field))
        assert gap <= 1e-9 * max(1.0, size), field
    ul.correlation_record(ua, ub, uphi)
    ul.sum_relations(ua, ub, uphi)
    _classify_unless_commuting(ua, ub, uphi)
