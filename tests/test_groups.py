import pytest

from qvertex.groups import (
    GroupData,
    binary_dihedral,
    binary_tetrahedral,
    build_group,
    cyclic,
    dump_group_file,
    extended_cartan,
    load_group_file,
    mckay_matrix,
    multiplicity,
    validate_group,
)
from qvertex.scalar import L_ONE, Laurent

BUILTINS = [cyclic(n) for n in (1, 2, 3, 5, 8)] + [binary_dihedral(n) for n in (2, 3, 4)] + [binary_tetrahedral()]


@pytest.mark.parametrize("g", BUILTINS, ids=lambda g: g.name)
def test_builtins_validate(g):
    assert validate_group(g) == []


def test_cyclic_char_values_are_root_powers():
    g = cyclic(3)
    for i in range(3):
        for j in range(3):
            assert g.char_table[i][j] == Laurent.root(3, i * j)


def test_cyclic2_table_and_natural():
    g = cyclic(2)
    assert [[c.as_rational() for c in row] for row in g.char_table] == [[1, 1], [1, -1]]
    assert g.natural_char[0].as_rational() == 2
    assert g.natural_char[1].as_rational() == -2


def test_perturbed_table_fails_row_orthogonality():
    g = cyclic(3)
    rows = [list(r) for r in g.char_table]
    rows[1][1] = rows[1][1] + L_ONE
    bad = validate_group(
        GroupData(g.name, g.order, g.conductor, g.classes, tuple(tuple(r) for r in rows), g.natural_char)
    )
    assert any("row orthogonality" in b for b in bad)


def test_inverse_class_involution():
    for g in BUILTINS:
        perm = [g.inv(c) for c in range(g.n_classes)]
        assert [perm[p] for p in perm] == list(range(g.n_classes))
        assert perm[0] == 0


def test_tensor_multiplicity_cyclic3():
    g = cyclic(3)
    gamma_1 = g.char_table[1]
    assert multiplicity(g, gamma_1, gamma_1, 2) == 1
    assert multiplicity(g, gamma_1, gamma_1, 0) == 0


def test_bt_dimension_vector():
    g = binary_tetrahedral()
    assert g.dims == (1, 1, 1, 2, 2, 2, 3)
    assert sum(d * d for d in g.dims) == 24


def test_bt_adjacency_is_affine_e6():
    g = binary_tetrahedral()
    assert mckay_matrix(g) == extended_cartan(("E", 6))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_cyclic_mckay_matrix(n):
    assert mckay_matrix(cyclic(n)) == extended_cartan(("A", n - 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bd_mckay_matrix(n):
    assert mckay_matrix(binary_dihedral(n)) == extended_cartan(("D", n + 2))


def test_natural_multiplicity_symmetric_for_selfconj_pi():
    g = binary_dihedral(3)
    n = g.n_classes
    for i in range(n):
        for j in range(n):
            pi = g.natural_char
            assert multiplicity(g, pi, g.char_table[i], j) == multiplicity(g, pi, g.char_table[j], i)


def test_build_group_specs():
    assert build_group("cyclic:4").order == 4
    assert build_group("bd:2").order == 8
    assert build_group("bt").order == 24
    with pytest.raises(ValueError):
        build_group("nope:1")


def test_group_file_round_trip(tmp_path):
    for g in (cyclic(3), binary_dihedral(3), binary_tetrahedral()):
        p = tmp_path / "g.grp"
        dump_group_file(g, str(p))
        h = load_group_file(str(p))
        assert h.order == g.order and h.conductor == g.conductor
        assert h.char_table == g.char_table
        assert h.natural_char == g.natural_char
        assert [c.centralizer_order for c in h.classes] == [c.centralizer_order for c in g.classes]


@pytest.mark.parametrize("spec", ["bt", "bd:5", "cyclic:6"])
def test_group_file_round_trips_byte_for_byte(spec, tmp_path):
    # dump renders each constant at the group's conductor, load parses it back
    first, second = tmp_path / "first.grp", tmp_path / "second.grp"
    dump_group_file(build_group(spec), str(first))
    dump_group_file(load_group_file(str(first)), str(second))
    assert second.read_bytes() == first.read_bytes()


def test_group_file_rejects_bad_table(tmp_path):
    g = cyclic(2)
    p = tmp_path / "bad.grp"
    dump_group_file(g, str(p))
    text = p.read_text().replace("char 0:1 0:-1", "char 0:1 0:1")
    p.write_text(text)
    with pytest.raises(ValueError, match="orthogonality"):
        load_group_file(str(p))
