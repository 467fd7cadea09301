import pytest

from qvertex import repring
from qvertex.groups import binary_dihedral, binary_tetrahedral, cyclic
from qvertex.repring import (
    CxClassFunction,
    QCartanMatrix,
    antipode,
    cartan_specialization_check,
    first_xi,
    hermitian_like_check,
    mckay_eigencheck,
    positivity_probe,
    qcartan,
    qp_degeneracy_check,
    qp_eigenvalues,
    second_xi,
)
from qvertex.scalar import Laurent

from helpers import general_xi, standard_form, weighted_form

QQ = Laurent.q_pow(1) + Laurent.q_pow(-1)


def test_antipode_on_twisted_trivial():
    g = cyclic(3)
    f = CxClassFunction.character(g, 0, qtwist=2)
    assert antipode(f).values == CxClassFunction.character(g, 0, qtwist=-2).values


def test_antipode_sends_gamma1_to_gamma2_cyclic3():
    g = cyclic(3)
    assert antipode(CxClassFunction.character(g, 1)).values == CxClassFunction.character(g, 2).values


def test_antipode_is_involution():
    g = binary_tetrahedral()
    f = CxClassFunction.character(g, 4, qtwist=1) + CxClassFunction.character(g, 2, qtwist=-3)
    assert antipode(antipode(f)).values == f.values


@pytest.mark.parametrize("g", [cyclic(2), cyclic(3), binary_dihedral(2), binary_tetrahedral()], ids=lambda g: g.name)
def test_first_xi_self_dual(g):
    f = first_xi(g).f
    assert antipode(f).values == f.values


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 3])
def test_second_xi_self_dual(k):
    f = second_xi(cyclic(4), k).f
    assert antipode(f).values == f.values


def test_standard_form_orthonormality():
    g = binary_dihedral(3)
    for i in range(g.n_classes):
        for j in range(g.n_classes):
            got = standard_form(
                CxClassFunction.character(g, i, qtwist=2), CxClassFunction.character(g, j, qtwist=-1)
            )
            want = Laurent.q_pow(3) if i == j else Laurent.zero()
            assert got == want


def test_standard_form_pi_pi_cyclic3():
    g = cyclic(3)
    pi = CxClassFunction.natural(g)
    assert standard_form(pi, pi) == Laurent.of(2)


def test_weighted_form_with_trivial_weight_is_standard():
    g = cyclic(5)
    # xi = gamma_0 (x) [1] - 0 = the trivial character
    xi = general_xi(g, CxClassFunction.constant(g, Laurent.zero()), 1)
    assert xi.f.values == CxClassFunction.character(g, 0).values
    f = CxClassFunction.character(g, 2, qtwist=1)
    h = CxClassFunction.character(g, 2, qtwist=-1)
    assert weighted_form(xi, f, h) == standard_form(f, h)


def test_weighted_form_equals_standard_of_product():
    g = binary_dihedral(2)
    xi = first_xi(g)
    for i in range(g.n_classes):
        for j in range(g.n_classes):
            f = CxClassFunction.character(g, i)
            h = CxClassFunction.character(g, j, qtwist=1)
            assert weighted_form(xi, f, h) == standard_form(xi.f * f, h)


def test_first_xi_diagonal_and_adjacent_entries():
    g = cyclic(3)
    xi = first_xi(g)
    A = qcartan(xi)
    for i in range(3):
        assert A.entries[i][i] == QQ
    assert A.entries[1][2] == Laurent.of(-1)


@pytest.mark.parametrize(
    "xi",
    [first_xi(binary_tetrahedral()), second_xi(cyclic(4), 3), first_xi(binary_dihedral(3))],
    ids=["bt-first", "cyclic4-second", "bd3-first"],
)
def test_qcartan_matches_weighted_form_entrywise(xi):
    g = xi.group
    chars = [CxClassFunction.character(g, i) for i in range(g.n_classes)]
    A = qcartan(xi)
    for i, f in enumerate(chars):
        for j, h in enumerate(chars):
            assert A.entries[i][j] == weighted_form(xi, f, h), (i, j)


def test_qcartan_cyclic1_second():
    A = qcartan(second_xi(cyclic(1), 1))
    assert A.entries[0][0] == QQ - QQ  # q+q^-1-p-p^-1 with p=q
    A2 = qcartan(second_xi(cyclic(1), 2))
    assert A2.entries[0][0] == QQ - (Laurent.q_pow(2) + Laurent.q_pow(-2))


def test_qcartan_r1_second():
    A = qcartan(second_xi(cyclic(2), 1))
    off = -(Laurent.q_pow(1) + Laurent.q_pow(-1))
    assert A.entries[0][0] == QQ and A.entries[1][1] == QQ
    assert A.entries[0][1] == off and A.entries[1][0] == off


def test_qcartan_cyclic2_first():
    A = qcartan(first_xi(cyclic(2)))
    assert A.entries[0][0] == QQ
    assert A.entries[0][1] == Laurent.of(-2)


def test_second_xi_tridiagonal_with_p():
    A = qcartan(second_xi(cyclic(4), 3))
    p, pinv = Laurent.q_pow(3), Laurent.q_pow(-3)
    for i in range(4):
        for j in range(4):
            want = QQ if i == j else -p if (i + 1) % 4 == j else -pinv if (i - 1) % 4 == j else Laurent.zero()
            assert A.entries[i][j] == want, (i, j)


@pytest.mark.parametrize("g", [cyclic(2), cyclic(3), binary_dihedral(2), binary_dihedral(3), binary_tetrahedral()], ids=lambda g: g.name)
def test_hermitian_likeness_first(g):
    assert hermitian_like_check(qcartan(first_xi(g))).passed


@pytest.mark.parametrize("k", [-1, 0, 2])
def test_hermitian_likeness_second(k):
    assert hermitian_like_check(qcartan(second_xi(cyclic(5), k))).passed


def test_hermitian_like_check_fails_on_a_moved_entry():
    # a[3][1] of bd:2 moved by zeta_5 v: the first failing case is its mirror a[1][3]
    A = qcartan(first_xi(binary_dihedral(2)))
    rows = [list(r) for r in A.entries]
    rows[3][1] = rows[3][1] + Laurent.v_pow(1, Laurent.root(5))
    rep = hermitian_like_check(QCartanMatrix(A.xi, tuple(tuple(r) for r in rows)))
    assert not rep.passed
    assert (rep.fail_detail["where"], rep.n_cases) == ("a[1][3]", 9)


@pytest.mark.parametrize("g", [cyclic(2), cyclic(3), binary_dihedral(2), binary_tetrahedral()], ids=lambda g: g.name)
def test_mckay_eigencheck_first(g):
    assert mckay_eigencheck(first_xi(g)).passed


def test_mckay_eigenvalues_explicit_cyclic3():
    g = cyclic(3)
    xi = first_xi(g)
    assert xi.f.values[0] == QQ - Laurent.of(2)
    assert xi.f.values[1] == QQ + Laurent.one()


@pytest.mark.parametrize("k", [-2, -1, 1, 2, 5])
def test_mckay_eigencheck_second(k):
    assert mckay_eigencheck(second_xi(cyclic(6), k)).passed


def test_qp_eigenvalue_formula():
    g = cyclic(3)
    w = Laurent.root(3)
    for k in (1, 2):
        vals = qp_eigenvalues(g, k)
        for j in range(3):
            want = QQ - Laurent.q_pow(k, Laurent.root(3, j)) - Laurent.q_pow(-k, Laurent.root(3, -j))
            assert vals[j] == want


@pytest.mark.parametrize("g", [cyclic(1), cyclic(2), cyclic(3), binary_dihedral(2), binary_dihedral(3), binary_tetrahedral()], ids=lambda g: g.name)
def test_cartan_specialization(g):
    assert cartan_specialization_check(g).passed


@pytest.mark.parametrize("k,expect_degenerate", [(1, True), (-1, True), (0, False), (2, False), (-3, False)])
def test_qp_degeneracy(k, expect_degenerate):
    rep = qp_degeneracy_check(cyclic(4), k)
    assert rep.passed
    if expect_degenerate:
        assert any("rank 3 of 4" in n for n in rep.notes)


@pytest.mark.parametrize("g", [cyclic(3), binary_dihedral(2), binary_tetrahedral()], ids=lambda g: g.name)
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_positivity_probe_definite(g, t):
    assert positivity_probe(first_xi(g), t).passed


def test_positivity_probe_boundary_t1():
    assert positivity_probe(first_xi(cyclic(3)), 1.0).passed


def test_positivity_probe_qp_rank():
    rep = positivity_probe(second_xi(cyclic(3), 1), 2.0)
    assert rep.passed
    assert any("kernel" in n for n in rep.notes)


def test_positivity_probe_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        positivity_probe(first_xi(cyclic(2)), -2.0)
    with pytest.raises(ValueError):
        positivity_probe(first_xi(cyclic(2)), 0.0)


# -- the McKay, Cartan and degeneracy checks fail on a seeded defect, at a named place


def moved_cartan_entry(monkeypatch, i, j, shift):
    """qcartan with entry (i, j) replaced by shift(entry)."""
    orig = repring.qcartan

    def seeded(xi):
        A = orig(xi)
        rows = [list(row) for row in A.entries]
        rows[i][j] = shift(rows[i][j])
        return QCartanMatrix(A.xi, tuple(tuple(row) for row in rows))

    monkeypatch.setattr(repring, "qcartan", seeded)


def test_mckay_eigencheck_fails_on_a_moved_cartan_entry(monkeypatch):
    g = cyclic(3)
    assert mckay_eigencheck(first_xi(g)).passed
    moved_cartan_entry(monkeypatch, 1, 2, lambda a: a * Laurent.q_pow(1))
    bad = mckay_eigencheck(first_xi(g))
    assert not bad.passed
    assert bad.fail_detail["where"] == "class c0, row 1"
    assert bad.n_cases == 2


def test_cartan_specialization_fails_on_a_perturbed_cartan_entry(monkeypatch):
    g = binary_tetrahedral()
    assert cartan_specialization_check(g).passed
    # a q-shift is invisible at q = 1; a changed constant term is not
    moved_cartan_entry(monkeypatch, 0, 1, lambda a: a * Laurent.q_pow(1))
    assert cartan_specialization_check(g).passed
    moved_cartan_entry(monkeypatch, 0, 1, lambda a: a + Laurent.one())
    bad = cartan_specialization_check(g)
    assert not bad.passed
    assert bad.fail_detail["where"] == "matrix"
    assert bad.n_cases == 49


def test_qp_degeneracy_fails_on_a_shifted_eigenvalue_exponent(monkeypatch):
    g = cyclic(4)
    orig = repring.qp_eigenvalues
    monkeypatch.setattr(repring, "qp_eigenvalues", lambda g, p_exp: orig(g, p_exp + 1))
    bad = qp_degeneracy_check(g, 1)
    assert bad.check_id == "repring.qp_degeneracy"  # the eigencheck before it still passes
    assert not bad.passed
    assert bad.fail_detail["where"] == "zero eigenvalue set"
    assert bad.fail_detail["expected"] == "[0]" and bad.fail_detail["got"] == "[]"
    assert bad.n_cases == 4
