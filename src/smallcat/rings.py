"""Finite algebras over a prime field, their modules, and change of rings.

Finite-dimensional algebras are given by structure constants; modules over
them by one action matrix per basis element.  Change of rings along an
algebra map ``f: A -> B`` comes in all three forms: restriction, tensoring
up and the hom construction.  Tensoring up builds an :class:`InducedModule`
record, the quotient of ``B (x) M`` by the bilinearity relations with its
projection and one section; the hom construction builds a
:class:`CoinducedModule` record, the solution space of the linearity
constraints with its basis.  One transport per direction carries a linear
map ``g`` between two records (lift through the section, apply
``B (x) g``, project; or postcompose each basis homomorphism with ``g`` and
solve in the target basis).  The module-map, complex and complex-map
functions are thin wrappers over it, and a complex builds each degree's
record once.

The linear algebra is that of :mod:`smallcat.chaincx`, where every name
here lived before; ``chaincx.induce`` and the rest still work through
its module ``__getattr__``.  Only code that changes rings loads this
module, and no command does.
"""
from __future__ import annotations

import itertools

from .chaincx import (
    ComplexMap,
    FiniteComplex,
    Matrix,
    _coker_projection,
    build_complex,
    hstack,
    identity,
    matmul,
    nullspace_mod,
    rank_mod,
    solve_mod,
    vstack,
    zeros,
)
from .fincat import is_prime, record


# ---------------------------------------------------------------------------
# matrix helpers of the algebra code


def kron(a: Matrix, b: Matrix, p: int) -> Matrix:
    """The Kronecker product mod ``p``: block ``(i, j)`` is ``a[i][j] b``."""
    return Matrix(tuple(tuple(x * y % p for x in ra for y in rb)
                        for ra in a.rows for rb in b.rows),
                  a.ncols * b.ncols)


def sub(a: Matrix, b: Matrix, p: int) -> Matrix:
    if a.shape != b.shape:
        raise ValueError(f"cannot subtract {b.shape} from {a.shape}")
    return Matrix(tuple(tuple((x - y) % p for x, y in zip(ra, rb))
                        for ra, rb in zip(a.rows, b.rows)), a.ncols)


def _matvec(m: Matrix, v, p: int) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v, strict=True)) % p
                 for row in m.rows)


def _combination(coeffs, mats, p: int, shape: tuple[int, int]) -> Matrix:
    """``sum_i coeffs[i] mats[i]`` mod ``p``, of the given shape."""
    out = [[0] * shape[1] for _ in range(shape[0])]
    for c, m in zip(coeffs, mats, strict=True):
        if c % p:
            for acc, row in zip(out, m.rows, strict=True):
                for j, x in enumerate(row):
                    acc[j] += c * x
    return Matrix(tuple(tuple(x % p for x in row) for row in out), shape[1])


# ---------------------------------------------------------------------------
# finite algebras and modules


@record(frozen=True)
class FiniteAlgebra:
    """An associative unital algebra by structure constants.

    Row ``j`` of ``structure[i]`` is the coefficient vector of ``e_i e_j``.
    """

    p: int
    dim: int
    structure: tuple[Matrix, ...]    # dim matrices of shape (dim, dim)
    unit: tuple[int, ...]            # dim entries

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not a prime")

    def multiply(self, x, y) -> tuple[int, ...]:
        return _matvec(self.left_mult_matrix(x), y, self.p)

    def left_mult_matrix(self, x) -> Matrix:
        """The matrix of ``b -> x b``."""
        return _combination(x, self.structure, self.p, (self.dim, self.dim)).T

    def right_mult_matrix(self, x) -> Matrix:
        """The matrix of ``b -> b x``."""
        return Matrix(tuple(self.multiply(e, x) for e in identity(self.dim).rows),
                      self.dim).T


def validate_algebra(A: FiniteAlgebra) -> list[str]:
    errors = []
    if len(A.structure) != A.dim or \
            any(s.shape != (A.dim, A.dim) for s in A.structure):
        return ["structure tensor has wrong shape"]
    basis = identity(A.dim).rows
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                lhs = A.multiply(A.multiply(basis[i], basis[j]), basis[k])
                rhs = A.multiply(basis[i], A.multiply(basis[j], basis[k]))
                if lhs != rhs:
                    errors.append(f"associativity fails at ({i},{j},{k})")
    for i in range(A.dim):
        if A.multiply(A.unit, basis[i]) != basis[i] or \
                A.multiply(basis[i], A.unit) != basis[i]:
            errors.append(f"unit law fails at {i}")
    return errors


def field_algebra(p: int) -> FiniteAlgebra:
    return FiniteAlgebra(p, 1, (identity(1),), (1,))


def dual_numbers(p: int) -> FiniteAlgebra:
    """k[x]/(x^2), basis (1, x)."""
    one = identity(2)                        # 1 * 1 = 1, 1 * x = x
    x = Matrix(((0, 1), (0, 0)), 2)          # x * 1 = x, x * x = 0
    return FiniteAlgebra(p, 2, (one, x), (1, 0))


@record(frozen=True)
class AlgebraMap:
    source: FiniteAlgebra
    target: FiniteAlgebra
    matrix: Matrix    # target coords of images of source basis, (tdim, sdim)


def validate_algebra_map(f: AlgebraMap) -> list[str]:
    A, B = f.source, f.target
    errors = []
    if f.matrix.shape != (B.dim, A.dim):
        return ["matrix has wrong shape"]
    if _matvec(f.matrix, A.unit, A.p) != B.unit:
        errors.append("unit not preserved")
    images = f.matrix.T.rows
    basis = identity(A.dim).rows
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = _matvec(f.matrix, A.multiply(basis[i], basis[j]), A.p)
            rhs = B.multiply(images[i], images[j])
            if lhs != rhs:
                errors.append(f"multiplicativity fails at ({i},{j})")
    return errors


def unit_inclusion(B: FiniteAlgebra) -> AlgebraMap:
    """The structure map from the ground field."""
    return AlgebraMap(field_algebra(B.p), B,
                      Matrix(tuple((u,) for u in B.unit), 1))


def augmentation_dual_numbers(p: int) -> AlgebraMap:
    """k[x]/(x^2) -> k killing x."""
    return AlgebraMap(dual_numbers(p), field_algebra(p), Matrix(((1, 0),), 2))


@record(frozen=True)
class AlgebraModule:
    """A left module: one action matrix per algebra basis element."""

    algebra: FiniteAlgebra
    dim: int
    action: tuple[Matrix, ...]    # algebra.dim matrices of shape (dim, dim)

    def act(self, a, v) -> tuple[int, ...]:
        return _matvec(self.acting(a), v, self.algebra.p)

    def acting(self, a) -> Matrix:
        """The matrix by which the algebra element ``a`` acts."""
        return _combination(a, self.action, self.algebra.p, (self.dim, self.dim))


def validate_module(M: AlgebraModule) -> list[str]:
    A = M.algebra
    errors = []
    if len(M.action) != A.dim or \
            any(m.shape != (M.dim, M.dim) for m in M.action):
        return ["action tensor has wrong shape"]
    if M.acting(A.unit) != identity(M.dim):
        errors.append("unit does not act as identity")
    basis = identity(A.dim).rows
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = M.acting(A.multiply(basis[i], basis[j]))
            rhs = matmul(M.action[i], M.action[j], A.p)
            if lhs != rhs:
                errors.append(f"action not multiplicative at ({i},{j})")
    return errors


def regular_module(A: FiniteAlgebra) -> AlgebraModule:
    return AlgebraModule(A, A.dim, tuple(A.left_mult_matrix(e)
                                         for e in identity(A.dim).rows))


def free_module(A: FiniteAlgebra, rank: int) -> AlgebraModule:
    reg = regular_module(A)
    return AlgebraModule(A, A.dim * rank, tuple(kron(identity(rank), a, A.p)
                                                for a in reg.action))


def trivial_module(A: FiniteAlgebra, f_to_field: AlgebraMap) -> AlgebraModule:
    """The one-dimensional module pulled back along an augmentation."""
    return AlgebraModule(A, 1, tuple(Matrix(((x,),), 1)
                                     for x in f_to_field.matrix.rows[0]))


def restrict_scalars(f: AlgebraMap, M: AlgebraModule) -> AlgebraModule:
    """View a module over the target as a module over the source."""
    if M.algebra is not f.target and validate_module(M):
        raise ValueError("module is not over the target algebra")
    return AlgebraModule(f.source, M.dim,
                         tuple(M.acting(image) for image in f.matrix.T.rows))


def pulled_back_target(f: AlgebraMap) -> AlgebraModule:
    """The target algebra as a module over the source."""
    return restrict_scalars(f, regular_module(f.target))


def module_hom_space(M: AlgebraModule, N: AlgebraModule) -> Matrix:
    """Basis (columns, flattened matrices) of the module homomorphisms."""
    p = M.algebra.p
    # h . act_M(e_i) - act_N(e_i) . h = 0, linear in the entries of h
    blocks = [sub(kron(am.T, identity(N.dim), p), kron(identity(M.dim), an, p), p)
              for am, an in zip(M.action, N.action)]
    if not blocks:
        return identity(N.dim * M.dim)
    return nullspace_mod(vstack(blocks), p)


def hom_dim(M: AlgebraModule, N: AlgebraModule) -> int:
    return module_hom_space(M, N).ncols


def module_is_free(M: AlgebraModule) -> bool:
    """Whether ``M`` is isomorphic to a finite power of the algebra."""
    A = M.algebra
    if A.dim == 0 or M.dim % A.dim:
        return False
    F = free_module(A, M.dim // A.dim)
    basis = module_hom_space(F, M)
    p = A.p
    if basis.ncols == 0:
        return M.dim == 0
    if basis.ncols > 14:
        raise ValueError("hom space too large for exhaustive freeness search")
    for coeffs in itertools.product(range(p), repeat=basis.ncols):
        h = _matvec(basis, coeffs, p)
        mat = Matrix(tuple(h[r:r + F.dim] for r in range(0, len(h), F.dim)),
                     F.dim)
        if rank_mod(mat, p) == M.dim:
            return True
    return False


# ---------------------------------------------------------------------------
# induced and coinduced modules


@record(frozen=True)
class InducedModule:
    module: AlgebraModule
    # projection from the tensor square space (target algebra (x) M)
    projection: Matrix
    # one section of the projection, back into the tensor square space
    section: Matrix


def induce(f: AlgebraMap, M: AlgebraModule) -> InducedModule:
    """Tensor up along ``f``: the target algebra tensored over the source.

    Computed as the quotient of ``B (x) M`` by the relations
    ``b f(a) (x) v - b (x) a v``; the module structure is left
    multiplication on the first factor.
    """
    if validate_module(M):
        raise ValueError("not a module over the source algebra")
    B = f.target
    p = f.source.p
    eyeB, eyeM = identity(B.dim), identity(M.dim)
    # one relation per basis (a, b, v), a column of ``B (x) M`` coordinates
    rels = [sub(kron(B.right_mult_matrix(fa), eyeM, p), kron(eyeB, am, p), p)
            for fa, am in zip(f.matrix.T.rows, M.action)]
    relmat = hstack(rels) if rels else zeros(B.dim * M.dim, 0)
    proj, sect = _coker_projection(relmat, p)
    # b acts on B (x) M as left multiplication on the first factor
    action = tuple(
        matmul(matmul(proj, kron(B.left_mult_matrix(b), eyeM, p), p), sect, p)
        for b in eyeB.rows)
    return InducedModule(AlgebraModule(B, proj.shape[0], action), proj, sect)


@record(frozen=True)
class CoinducedModule:
    module: AlgebraModule
    # columns are the basis homomorphisms, flattened as (M.dim x B.dim)
    basis: Matrix


def coinduce(f: AlgebraMap, M: AlgebraModule) -> CoinducedModule:
    """The hom construction along ``f``: source-linear maps from the target
    algebra to ``M``, with the action ``(b.h)(b') = h(b' b)``."""
    if validate_module(M):
        raise ValueError("not a module over the source algebra")
    B = f.target
    p = f.source.p
    eyeB, eyeM = identity(B.dim), identity(M.dim)
    # unknowns: h as an (M.dim x B.dim) matrix, columns = values on basis
    blocks = [sub(kron(B.left_mult_matrix(fa).T, eyeM, p),   # b -> f(a) b
                  kron(eyeB, am, p), p)
              for fa, am in zip(f.matrix.T.rows, M.action)]
    system = vstack(blocks) if blocks else zeros(0, B.dim * M.dim)
    basis = nullspace_mod(system, p)
    action = []
    for bi in eyeB.rows:
        # (b.h)(b') = h(b' b): precompose with right multiplication by b
        moved = matmul(kron(B.right_mult_matrix(bi).T, eyeM, p), basis, p)
        sol = solve_mod(basis, moved, p)
        if sol is None:
            raise AssertionError("coinduced action leaves the hom space")
        action.append(sol)
    return CoinducedModule(AlgebraModule(B, basis.ncols, tuple(action)), basis)


def _induce_transport(f: AlgebraMap, g: Matrix,
                      src: InducedModule, tgt: InducedModule) -> Matrix:
    """Carry ``g`` between tensored-up modules: lift, apply ``B (x) g``,
    project."""
    p = f.source.p
    return matmul(matmul(tgt.projection, kron(identity(f.target.dim), g, p), p),
                  src.section, p)


def _coinduce_transport(f: AlgebraMap, g: Matrix,
                        src: CoinducedModule, tgt: CoinducedModule) -> Matrix:
    """Carry ``g`` between hom modules: postcompose each basis homomorphism
    with ``g`` and solve in the target basis."""
    p = f.source.p
    moved = matmul(kron(identity(f.target.dim), g, p), src.basis, p)
    sol = solve_mod(tgt.basis, moved, p)
    if sol is None:
        raise AssertionError("coinduced map leaves the hom space")
    return sol


def induce_module_map(f: AlgebraMap, gmat: Matrix,
                      M: AlgebraModule, N: AlgebraModule) -> Matrix:
    """The matrix of the induced map between the tensored-up modules."""
    return _induce_transport(f, gmat, induce(f, M), induce(f, N))


def coinduce_module_map(f: AlgebraMap, gmat: Matrix,
                        M: AlgebraModule, N: AlgebraModule) -> Matrix:
    """The matrix of the coinduced map between the hom modules."""
    return _coinduce_transport(f, gmat, coinduce(f, M), coinduce(f, N))


def restrict_complex(f: AlgebraMap, C: FiniteComplex,
                     modules: dict[int, AlgebraModule]
                     ) -> tuple[FiniteComplex, dict[int, AlgebraModule]]:
    """Degreewise restriction of scalars (complex matrices are unchanged)."""
    return C, {k: restrict_scalars(f, M) for k, M in modules.items()}


def _degreewise(construct, transport, f: AlgebraMap, C: FiniteComplex,
                modules: dict[int, AlgebraModule]) -> tuple[FiniteComplex, dict]:
    """Build each degree's record once with ``construct`` and carry every
    differential between neighbouring records with ``transport``.

    ``modules[k]`` is the module structure in degree ``k``: every degree of
    nonzero dimension needs one, of the degree's dimension.
    """
    for k in range(C.lo, C.hi + 1):
        if C.dim(k) and k not in modules:
            raise ValueError(f"no module in degree {k}")
    for k, M in modules.items():
        if M.dim != C.dim(k):
            raise ValueError(f"module in degree {k} has dimension {M.dim}, "
                             f"not {C.dim(k)}")
    recs = {k: construct(f, M) for k, M in modules.items()}
    diff = {k: transport(f, C.d(k), recs[k], recs[k + 1])
            for k in range(C.lo, C.hi + 1) if k in recs and k + 1 in recs}
    dims = {k: rec.module.dim for k, rec in recs.items()}
    return build_complex(C.p, dims, diff), recs


def _degreewise_map(construct, transport, f: AlgebraMap, g: ComplexMap,
                    src_modules: dict[int, AlgebraModule],
                    tgt_modules: dict[int, AlgebraModule]) -> ComplexMap:
    """The complexes at both ends by :func:`_degreewise`, and each
    component of ``g`` carried between the records of its degree."""
    X, srcs = _degreewise(construct, transport, f, g.source, src_modules)
    Y, tgts = _degreewise(construct, transport, f, g.target, tgt_modules)
    return ComplexMap(X, Y, {k: transport(f, g.mat(k), srcs[k], tgts[k])
                             for k in srcs if k in tgts})


def coinduce_complex(f: AlgebraMap, C: FiniteComplex,
                     modules: dict[int, AlgebraModule]
                     ) -> tuple[FiniteComplex, dict[int, AlgebraModule]]:
    """Degreewise hom construction applied to a complex of modules.

    ``modules[k]`` is the module structure in degree ``k``; differentials
    must be module maps.  Returns the coinduced complex (underlying
    plain-vector-space complex plus per-degree modules).
    """
    out, recs = _degreewise(coinduce, _coinduce_transport, f, C, modules)
    return out, {k: rec.module for k, rec in recs.items()}


def induce_complex(f: AlgebraMap, C: FiniteComplex,
                   modules: dict[int, AlgebraModule]
                   ) -> tuple[FiniteComplex, dict[int, AlgebraModule]]:
    """Degreewise tensoring up applied to a complex of modules."""
    out, recs = _degreewise(induce, _induce_transport, f, C, modules)
    return out, {k: rec.module for k, rec in recs.items()}


def induce_complex_map(f: AlgebraMap, g: ComplexMap,
                       src_modules: dict[int, AlgebraModule],
                       tgt_modules: dict[int, AlgebraModule]) -> ComplexMap:
    """Degreewise tensoring up applied to a map of module complexes."""
    return _degreewise_map(induce, _induce_transport, f, g,
                           src_modules, tgt_modules)


def coinduce_complex_map(f: AlgebraMap, g: ComplexMap,
                         src_modules: dict[int, AlgebraModule],
                         tgt_modules: dict[int, AlgebraModule]) -> ComplexMap:
    """Degreewise hom construction applied to a map of module complexes."""
    return _degreewise_map(coinduce, _coinduce_transport, f, g,
                           src_modules, tgt_modules)
