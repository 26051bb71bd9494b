import numpy as np
import pytest

from smallcat.chaincx import (
    AlgebraMap,
    ComplexMap,
    FiniteComplex,
    augmentation_dual_numbers,
    build_complex,
    coinduce,
    coinduce_complex,
    coinduce_complex_map,
    dual_numbers,
    field_algebra,
    free_module,
    hom_dim,
    homology_dims,
    homotopy_truncate,
    identity_map,
    induce,
    is_degreewise_epi,
    is_degreewise_mono,
    is_prime,
    is_quasi_iso,
    module_is_free,
    naive_truncate,
    nullspace_mod,
    pulled_back_target,
    rank_mod,
    regular_module,
    reproduce_truncation_counterexample,
    restrict_scalars,
    trivial_module,
    two_term_identity_complex,
    unit_inclusion,
    validate_algebra,
    validate_algebra_map,
    validate_complex,
    validate_complex_map,
    validate_module,
    zero_complex,
    zero_map,
)


def test_rank_and_nullspace_mod():
    m = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert rank_mod(m, 5) == 1
    ns = nullspace_mod(m, 5)
    assert ns.shape[1] == 1
    assert not np.any((m @ ns) % 5)
    assert rank_mod(m, 2) == 1   # [[1,0],[0,0]] mod 2


def test_zero_complex_homology():
    Z = zero_complex(3)
    assert validate_complex(Z) == []
    assert homology_dims(Z) == {}


def test_two_term_complex_is_acyclic():
    for p in (2, 5):
        C = two_term_identity_complex(p)
        assert validate_complex(C) == []
        assert all(v == 0 for v in homology_dims(C).values())


def test_identity_map_is_quasi_iso():
    C = build_complex(3, {0: 2, 1: 1}, {0: [[1, 2]]})
    assert validate_complex(C) == []
    assert is_quasi_iso(identity_map(C))


def test_epi_mono_predicates():
    p = 3
    C = build_complex(p, {0: 2}, {})
    Z = zero_complex(p)
    assert is_degreewise_epi(zero_map(C, Z))
    assert is_degreewise_mono(zero_map(Z, C))
    # diagonal inclusion of the line into the plane
    line = build_complex(p, {0: 1}, {})
    diag = ComplexMap(line, C, {0: np.array([[1], [1]], dtype=np.int64)})
    assert validate_complex_map(diag) == []
    assert is_degreewise_mono(diag)
    assert not is_degreewise_epi(diag)


def test_quasi_iso_detects_failure():
    p = 2
    k0 = build_complex(p, {0: 1}, {})
    Z = zero_complex(p)
    assert not is_quasi_iso(zero_map(k0, Z))


def test_naive_truncate_of_paper_complex():
    for p in (2, 5):
        C = two_term_identity_complex(p)
        R = naive_truncate(C)
        assert R.dims == {0: 1}
        assert homology_dims(R)[0] == 1
        L = homotopy_truncate(C)
        assert sum(L.dims.values()) == 0


def test_truncations_fix_nonnegative_complexes():
    C = build_complex(3, {0: 2, 1: 1}, {0: [[1, 2]]})
    assert naive_truncate(C).dims == C.dims
    H = homotopy_truncate(C)
    assert H.dims == C.dims
    assert np.array_equal(H.d(0) % 3, C.d(0) % 3)


def test_truncations_commute_with_direct_sums():
    p = 5
    C = two_term_identity_complex(p)
    D = build_complex(p, {-1: 2, 0: 2},
                      {-1: [[1, 0], [0, 1]]})
    # direct sum complex
    S = build_complex(p, {-1: 3, 0: 3},
                      {-1: np.block([[np.array([[1]]), np.zeros((1, 2))],
                                     [np.zeros((2, 1)), np.eye(2)]]).astype(int)})
    nt = naive_truncate(S)
    assert nt.dim(0) == naive_truncate(C).dim(0) + naive_truncate(D).dim(0)
    ht = homotopy_truncate(S)
    assert ht.dim(0) == homotopy_truncate(C).dim(0) + homotopy_truncate(D).dim(0)


def test_reproduce_truncation_counterexample():
    for p in (2, 5):
        rep = reproduce_truncation_counterexample(p)
        assert rep["acyclic_fib"] is True
        assert rep["FR_acyclic_fib"] is False
        assert rep["homotopy_image_qiso"] is True
        assert rep["naive_h0"] == 1


# --- algebras and modules ---------------------------------------------------

def test_algebras_validate():
    for p in (2, 5):
        assert validate_algebra(field_algebra(p)) == []
        assert validate_algebra(dual_numbers(p)) == []


def test_algebra_maps_validate():
    for p in (2, 5):
        assert validate_algebra_map(unit_inclusion(dual_numbers(p))) == []
        assert validate_algebra_map(augmentation_dual_numbers(p)) == []


def test_modules_validate():
    p = 2
    D = dual_numbers(p)
    for M in (regular_module(D), free_module(D, 2),
              trivial_module(D, augmentation_dual_numbers(p))):
        assert validate_module(M) == []


def test_restrict_scalars_identity_algebra():
    p = 3
    k = field_algebra(p)
    ident = AlgebraMap(k, k, np.array([[1]], dtype=np.int64))
    M = regular_module(k)
    assert restrict_scalars(ident, M).dim == M.dim


def test_module_freeness():
    p = 2
    D = dual_numbers(p)
    assert module_is_free(regular_module(D))
    assert module_is_free(free_module(D, 2))
    assert not module_is_free(trivial_module(D, augmentation_dual_numbers(p)))
    # the pulled-back target along the unit inclusion k -> D is free over k
    assert module_is_free(pulled_back_target(unit_inclusion(D)))


def test_induce_dimension_doubles():
    # ground field into the dual numbers: tensoring up doubles dimension
    p = 2
    f = unit_inclusion(dual_numbers(p))
    M = regular_module(field_algebra(p))   # the field as a module over itself
    ind = induce(f, M)
    assert validate_module(ind.module) == []
    assert ind.module.dim == 2


def test_coinduce_dimension_doubles():
    p = 2
    f = unit_inclusion(dual_numbers(p))
    M = regular_module(field_algebra(p))
    coin = coinduce(f, M)
    assert validate_module(coin.module) == []
    assert coin.module.dim == 2


def test_induce_identity_is_identity_dim():
    p = 3
    D = dual_numbers(p)
    ident = AlgebraMap(D, D, np.eye(2, dtype=np.int64))
    M = regular_module(D)
    assert induce(ident, M).module.dim == M.dim
    assert coinduce(ident, M).module.dim == M.dim
    assert restrict_scalars(ident, M).dim == M.dim


def adjunction_dims_agree(f, M, N):
    # |hom_B(induce M, N)| vs |hom_A(M, restrict N)| as dimensions
    left = hom_dim(induce(f, M).module, N)
    right = hom_dim(M, restrict_scalars(f, N))
    return left, right


def test_induce_adjunction_counts():
    p = 2
    f = unit_inclusion(dual_numbers(p))
    k = field_algebra(p)
    D = dual_numbers(p)
    modules_A = [regular_module(k), free_module(k, 2), free_module(k, 3)]
    modules_B = [regular_module(D), free_module(D, 1),
                 trivial_module(D, augmentation_dual_numbers(p))]
    for M in modules_A:
        for N in modules_B:
            left, right = adjunction_dims_agree(f, M, N)
            assert left == right


def test_coinduce_adjunction_counts():
    p = 2
    f = unit_inclusion(dual_numbers(p))
    k = field_algebra(p)
    D = dual_numbers(p)
    for M in (regular_module(k), free_module(k, 2)):
        for N in (regular_module(D),
                  trivial_module(D, augmentation_dual_numbers(p))):
            left = hom_dim(restrict_scalars(f, N), M)
            right = hom_dim(N, coinduce(f, M).module)
            assert left == right


def test_coinduce_preserves_epi_and_qiso_when_free():
    # along the unit inclusion k -> k[x]/(x^2), the pulled-back target is
    # free, and the restrict-coinduce composite preserves degreewise epis
    # and quasi-isomorphisms
    p = 2
    f = unit_inclusion(dual_numbers(p))
    assert module_is_free(pulled_back_target(f))
    k = field_algebra(p)
    C = two_term_identity_complex(p)
    modC = {-1: regular_module(k), 0: regular_module(k)}
    Z = zero_complex(p)
    modZ = {}
    collapse = zero_map(C, Z)
    assert is_degreewise_epi(collapse) and is_quasi_iso(collapse)
    g = coinduce_complex_map(f, collapse, modC, modZ)
    assert validate_complex_map(g) == []
    assert is_degreewise_epi(g)
    assert is_quasi_iso(g)


def test_induce_preserves_mono_and_qiso_when_free():
    # along the unit inclusion the pulled-back target is free (hence flat),
    # and tensoring up preserves degreewise monos and quasi-isomorphisms
    p = 2
    from smallcat.chaincx import induce_complex, induce_complex_map
    f = unit_inclusion(dual_numbers(p))
    k = field_algebra(p)
    C = two_term_identity_complex(p)
    modC = {-1: regular_module(k), 0: regular_module(k)}
    Z = zero_complex(p)
    include = zero_map(Z, C)
    assert is_degreewise_mono(include) and is_quasi_iso(include)
    g = induce_complex_map(f, include, {}, modC)
    assert validate_complex_map(g) == []
    assert is_degreewise_mono(g)
    assert is_quasi_iso(g)
    CC, _ = induce_complex(f, C, modC)
    assert validate_complex(CC) == []
    assert CC.dim(0) == 2
    assert all(v == 0 for v in homology_dims(CC).values())


def test_coinduce_complex_structure():
    p = 2
    f = unit_inclusion(dual_numbers(p))
    k = field_algebra(p)
    C = two_term_identity_complex(p)
    modC = {-1: regular_module(k), 0: regular_module(k)}
    CC, mods = coinduce_complex(f, C, modC)
    assert validate_complex(CC) == []
    assert CC.dim(-1) == 2 and CC.dim(0) == 2
    assert all(v == 0 for v in homology_dims(CC).values())


def test_coinduce_exactness_on_short_exact_sequence():
    # 0 -> k -> k^2 -> k -> 0 stays exact after the hom construction along
    # the unit inclusion (the pulled-back algebra is free of rank 2)
    from smallcat.chaincx import coinduce_module_map, induce_module_map
    p = 3
    f = unit_inclusion(dual_numbers(p))
    k = field_algebra(p)
    line = regular_module(k)
    plane = free_module(k, 2)
    g1 = np.array([[1], [1]], dtype=np.int64)           # diagonal inclusion
    g2 = np.array([[1, p - 1]], dtype=np.int64)         # difference map
    assert not np.any((g2 @ g1) % p)
    G1 = coinduce_module_map(f, g1, line, plane)
    G2 = coinduce_module_map(f, g2, plane, line)
    assert G1.shape == (4, 2) and G2.shape == (2, 4)
    assert not np.any((G2 @ G1) % p)
    assert rank_mod(G1, p) == 2                          # still injective
    assert rank_mod(G2, p) == 2                          # still surjective
    # exactness in the middle: kernel of G2 equals image of G1
    ker = nullspace_mod(G2, p)
    assert rank_mod(np.concatenate([G1, ker], axis=1), p) == 2
    # the tensor side preserves the same sequence (free implies flat)
    H1 = induce_module_map(f, g1, line, plane)
    H2 = induce_module_map(f, g2, plane, line)
    assert not np.any((H2 @ H1) % p)
    assert rank_mod(H1, p) == 2 and rank_mod(H2, p) == 2


def test_non_prime_characteristic_rejected():
    assert [q for q in range(-2, 30) if is_prime(q)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for p in (0, 1, 4, 9):
        with pytest.raises(ValueError):
            build_complex(p, {0: 1}, {})
        with pytest.raises(ValueError):
            zero_complex(p)
        with pytest.raises(ValueError):
            field_algebra(p)
        with pytest.raises(ValueError):
            dual_numbers(p)
        with pytest.raises(ValueError):
            FiniteComplex(p, 0, -1, {}, {})
