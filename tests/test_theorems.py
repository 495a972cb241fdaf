"""Theorem sweeps over generated almost Hermitian Lie algebras.

Every almost Hermitian Lie algebra (g, J, g) has a g-orthonormal frame
(u_1, .., u_m, J u_1, .., J u_m); in it J is the block J0 below and g is
the identity.  So random brackets with the fixed pair (J0, I) reach every
almost Hermitian Lie algebra up to isomorphism.  Two families of rank 4
over a chart without coordinates:

- nilpotent brackets, generically not integrable;
- complex Lie algebras [E1, E2] = alpha E1 + beta E2 with alpha, beta in
  Q(i), realified on (E1, E2, i E1, i E2), where J0 is multiplication by
  i and so integrable.

On each example the abstract's theorems must hold: the mean curvature of
the (0,1) eigenbundle vanishes, B vanishes iff J is integrable, and the
identity suite passes with the stated constants of prodgeom.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.algebroid import Algebroid, validate_structure
from algebroids.connections import Metric, kahler_report
from algebroids.constructions import Fixture
from algebroids.jstruct import almost_complex_structure
from algebroids.prodgeom import identity_suite, mean_curvature
from algebroids.scalars import Chart

SWEEP = settings(derandomize=True, deadline=None, max_examples=5)
CONSTANTS = st.fractions(min_value=-9, max_value=9, max_denominator=9)
RANK = 4
# J e_0 = e_2, J e_1 = e_3: the J of the heis_j fixture
J0 = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
EYE = [[int(a == b) for b in range(RANK)] for a in range(RANK)]


def _hermitian(name: str, table: dict) -> Fixture:
    A = Algebroid(Chart(name, []), RANK, [[]] * RANK, table)
    assert validate_structure(A).ok()
    return Fixture(name, A, almost_complex_structure(A, J0), Metric(A, EYE))


@st.composite
def nilpotent_algebras(draw):
    """C^c_ab nonzero only for c > max(a, b), so Jacobi holds."""
    table = {}
    for a in range(RANK):
        for b in range(a + 1, RANK):
            for c in range(b + 1, RANK):
                value = draw(CONSTANTS)
                if value:
                    table[(a, b, c)] = value
    return _hermitian("nil", table)


@st.composite
def complex_algebras(draw):
    """[E1, E2] = alpha E1 + beta E2 over the real frame
    (e_0, e_1, e_2, e_3) = (E1, E2, i E1, i E2)."""
    ar, ai, br, bi = (draw(CONSTANTS) for _ in range(4))
    v = [ar, br, ai, bi]          # [E1, E2]
    iv = [-ai, -bi, ar, br]       # i [E1, E2]
    # [E1, i E2] = i v, [E2, i E1] = -i v, [i E1, i E2] = -v
    brackets = {(0, 1): v, (0, 3): iv, (1, 2): [-x for x in iv],
                (2, 3): [-x for x in v]}
    table = {(a, b, c): x for (a, b), comps in brackets.items()
             for c, x in enumerate(comps) if x}
    return _hermitian("cx", table)


def _assert_theorems(fx: Fixture):
    N = fx.nijenhuis
    assert N.checks.ok("dual_route_agreement")
    assert mean_curvature(fx).zero
    sf = fx.second_fundamental
    assert sf.b_zero == N.is_structurally_zero()
    rep = identity_suite(fx)
    assert rep.ok
    assert kahler_report(fx).checks.ok("fundamental_form_identity")
    return rep


@SWEEP
@given(nilpotent_algebras())
def test_nilpotent_sweep(fx):
    rep = _assert_theorems(fx)
    if not fx.nijenhuis.is_structurally_zero():
        assert rep.m16_constant is not None
        assert rep.m17_constant is not None
        assert rep.m19_constant is not None


@SWEEP
@given(complex_algebras())
def test_complex_sweep(fx):
    rep = _assert_theorems(fx)
    assert fx.nijenhuis.is_structurally_zero()
    assert fx.second_fundamental.b_zero and rep.b_zero
