import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import parafreq
from parafreq import (
    DriftOperator,
    Field,
    assemble,
    check_self_adjoint,
    dirichlet_energy,
    eigenpairs,
    make_circle,
    make_gauss_line,
    make_torus,
    weighted_inner,
)
from parafreq.errors import IncompatibleFieldsError, InvalidInputError
from parafreq.core import MAX_GAUSS_ORDER
from parafreq.operators import MAX_DENSE_NODES
from parafreq.suite import SuiteContext

from conftest import peak_allocated

TWO_PI = 2.0 * np.pi


def circle_symbol(k: int, n: int = 128, length: float = TWO_PI) -> float:
    h = length / n
    return -4.0 * np.sin(k * h / 2.0) ** 2 / h**2


def make_conformal_torus(side: int):
    base = make_torus(side, side, TWO_PI, TWO_PI)
    x, y = base.coords[:, 0], base.coords[:, 1]
    phi = 0.4 * np.sin(x) * np.cos(y) + 0.2 * np.cos(2.0 * x)
    psi = 0.3 * np.sin(x) * np.cos(y)
    return make_torus(side, side, TWO_PI, TWO_PI, phi, psi)


def dense_edge_assembly(geometry):
    """Reference: scatter the edge list into a dense matrix, then divide by mu.

    Edge e runs from the node at -1 to the node at +1 in row e of the
    periodic differences ``G``, and has the weight ``C[e]``.
    """
    n = geometry.node_count
    G, coef = geometry.differences, geometry.weights
    cols, signs = G.indices.reshape(-1, 2), G.data.reshape(-1, 2)
    edge_i, edge_j = cols[signs == -1.0], cols[signs == 1.0]
    stiff = np.zeros((n, n))
    np.add.at(stiff, (edge_i, edge_i), coef)
    np.add.at(stiff, (edge_j, edge_j), coef)
    np.add.at(stiff, (edge_i, edge_j), -coef)
    np.add.at(stiff, (edge_j, edge_i), -coef)
    return -stiff / geometry.mu[:, None]


def drift_matrix(op):
    """``L = R^{-1} S R`` (``R = M^{1/2}``) of the stored symmetric form, as sparse CSR."""
    root = op.root
    return scipy.sparse.csr_array(
        scipy.sparse.diags_array(1.0 / root) @ op.symmetric @ scipy.sparse.diags_array(root))


def collocation_assembly(geometry):
    """Reference: the Gauss line's ``B diag(-k/2) B^T M``, diagonal in its eigenbasis ``B``."""
    basis = geometry.basis.basis
    rates = -0.5 * np.arange(basis.shape[1])
    return basis @ (rates[:, None] * (geometry.mu[:, None] * basis).T)


class TestAssembly:
    def test_sparse_matches_dense_edge_assembly(self, weighted_circle_op, conformal_torus_op):
        for op in (weighted_circle_op, conformal_torus_op):
            reference = dense_edge_assembly(op.geometry)
            gap = np.max(np.abs(drift_matrix(op).toarray() - reference))
            assert gap <= 1e-15 * np.max(np.abs(reference))

    @pytest.mark.parametrize("order", [32, 64, MAX_GAUSS_ORDER])
    def test_gauss_line_matches_collocation_assembly(self, order):
        # compared mu-symmetrized: nodal entries span up to 300 decades of the tail mu
        geometry = make_gauss_line(order)
        op = assemble(geometry)
        root = np.sqrt(geometry.mu)
        reference = root[:, None] * collocation_assembly(geometry) / root[None, :]
        gap = np.max(np.abs(op.symmetric.toarray() - reference))
        assert gap <= 1e-14 * np.max(np.abs(reference))
        assert check_self_adjoint(op).passed

    def test_stencil_sparsity(self, weighted_circle_op, conformal_torus_op):
        assert drift_matrix(weighted_circle_op).nnz <= 3 * weighted_circle_op.geometry.node_count
        assert drift_matrix(conformal_torus_op).nnz <= 5 * conformal_torus_op.geometry.node_count

    def test_dense_input_is_stored_as_read_only_csr(self, flat_circle_op):
        op = DriftOperator(geometry=flat_circle_op.geometry, symmetric=flat_circle_op.symmetric.toarray())
        assert op.symmetric.format == "csr"
        assert op.symmetric.nnz == flat_circle_op.symmetric.nnz
        with pytest.raises(ValueError):
            op.symmetric.data[0] = 0.0

    def test_constants_in_kernel_pointwise(self, flat_circle_op, conformal_torus_op):
        # stencil assembly differences a constant to exact zeros
        for op in (flat_circle_op, conformal_torus_op):
            one = Field.constant(op.geometry)
            assert np.max(np.abs(op.apply(one).values)) < 1e-13

    def test_constants_in_kernel_gauss_line(self, gauss_line_op):
        # collocation round-off at far-tail nodes is weighted out by mu
        out = gauss_line_op.apply(Field.constant(gauss_line_op.geometry))
        assert np.sqrt(weighted_inner(out, out)) < 1e-12

    def test_flat_circle_reduces_to_graph_laplacian(self):
        geom = make_circle(16, 16.0)  # h = 1, mu = 1: plain graph Laplacian
        op = assemble(geom)
        expected = -2.0 * np.eye(16)
        expected += np.roll(np.eye(16), 1, axis=1) + np.roll(np.eye(16), -1, axis=1)
        assert np.max(np.abs(drift_matrix(op).toarray() - expected)) < 1e-14

    def test_sine_mode_second_order(self):
        errors = []
        for n in (64, 128):
            geom = make_circle(n, TWO_PI)
            op = assemble(geom)
            u = Field(geom, np.sin(geom.coords[:, 0]))
            errors.append(np.max(np.abs(op.apply(u).values[:, 0] + np.sin(geom.coords[:, 0]))))
        assert errors[1] < 1e-3
        assert errors[0] / errors[1] > 3.5

    def test_weighted_circle_against_refined_grid(self):
        # 10x refined grid as the oracle; coarse error is the grid's own O(h^2)
        def drift_apply(n):
            base = make_circle(n, TWO_PI)
            geom = make_circle(n, TWO_PI, np.cos(base.coords[:, 0]))
            op = assemble(geom)
            u = Field(geom, np.sin(geom.coords[:, 0]))
            return geom.coords[:, 0], op.apply(u).values[:, 0]

        x_fine, fine = drift_apply(1280)
        errors = {}
        for n in (64, 128):
            x_coarse, coarse = drift_apply(n)
            oracle = np.interp(x_coarse, x_fine, fine)
            errors[n] = np.max(np.abs(coarse - oracle))
        assert errors[128] < 2e-3
        assert errors[64] / errors[128] > 3.5
        # the refined oracle itself is 5-digit accurate against the closed form
        analytic = -np.sin(x_fine) + np.sin(x_fine) * np.cos(x_fine)
        assert np.max(np.abs(fine - analytic)) < 1e-4

    def test_ou_action_on_linear(self, gauss_line, gauss_line_op):
        x = gauss_line.coords[:, 0]
        out = gauss_line_op.apply(Field(gauss_line, x)).values[:, 0]
        residual = Field(gauss_line, out + 0.5 * x)
        norm = np.sqrt(weighted_inner(residual, residual))
        assert norm < 1e-10

    def test_ou_action_on_quadratic(self, gauss_line, gauss_line_op):
        q = gauss_line.coords[:, 0] ** 2 - 2.0
        out = gauss_line_op.apply(Field(gauss_line, q)).values[:, 0]
        residual = Field(gauss_line, out + q)
        assert np.sqrt(weighted_inner(residual, residual)) < 1e-10

    def test_apply_is_linear(self, weighted_circle_op):
        rng = np.random.default_rng(3)
        geom = weighted_circle_op.geometry
        u = Field(geom, rng.standard_normal(geom.node_count))
        v = Field(geom, rng.standard_normal(geom.node_count))
        combo = Field(geom, 1.7 * u.values - 0.3 * v.values)
        lhs = weighted_circle_op.apply(combo).values
        rhs = 1.7 * weighted_circle_op.apply(u).values - 0.3 * weighted_circle_op.apply(v).values
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_apply_commutes_with_component_selection(self, flat_circle_op):
        rng = np.random.default_rng(4)
        geom = flat_circle_op.geometry
        values = rng.standard_normal((geom.node_count, 2))
        both = flat_circle_op.apply(Field(geom, values)).values
        first = flat_circle_op.apply(Field(geom, values[:, 0])).values[:, 0]
        np.testing.assert_allclose(both[:, 0], first, rtol=1e-12, atol=1e-12)

    def test_apply_zero_field(self, flat_circle_op):
        zero = Field.constant(flat_circle_op.geometry, 0.0)
        assert np.all(flat_circle_op.apply(zero).values == 0.0)

    def test_geometry_mismatch_rejected(self, flat_circle_op):
        other = make_circle(64, TWO_PI)
        with pytest.raises(IncompatibleFieldsError):
            flat_circle_op.apply(Field.constant(other))


class TestSelfAdjointness:
    def test_flat_circle_margin(self, flat_circle_op):
        rep = check_self_adjoint(flat_circle_op, seed=1)
        assert rep.passed
        assert rep.aux["max_asymmetry"] < 1e-12

    def test_conformal_torus(self, conformal_torus_op):
        rep = check_self_adjoint(conformal_torus_op, seed=2)
        assert rep.passed

    def test_gauss_line(self, gauss_line_op):
        rep = check_self_adjoint(gauss_line_op, seed=3)
        assert rep.passed

    def test_corrupted_operator_fails(self, flat_circle_op):
        broken = flat_circle_op.symmetric.toarray()
        broken[0, 1] += 1e-6
        rep = check_self_adjoint(
            DriftOperator(geometry=flat_circle_op.geometry, symmetric=broken), seed=4
        )
        assert not rep.passed

    def test_pairing_matches_energy(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        rng = np.random.default_rng(5)
        u = Field(geom, rng.standard_normal(geom.node_count))
        lu = weighted_circle_op.apply(u)
        assert abs(weighted_inner(u, lu) + dirichlet_energy(u)) < 1e-10


class TestSpectrum:
    def test_flat_circle_dispersion(self, flat_circle_op):
        pairs = eigenpairs(flat_circle_op, 5)
        values = np.array([p.eigenvalue for p in pairs])
        expected = np.array(
            [0.0, circle_symbol(1), circle_symbol(1), circle_symbol(2), circle_symbol(2)]
        )
        assert np.max(np.abs(values - expected)) < 1e-10
        continuum = np.array([0.0, -1.0, -1.0, -4.0, -4.0])
        rel = np.abs(values - continuum) / (1.0 + np.abs(continuum))
        assert np.max(rel) < 1e-3

    def test_non_square_torus_matches_its_symbol(self):
        # distinct node counts and side lengths per axis: swapped spacings would show
        nx, ny, lx, ly = 12, 20, TWO_PI, 3.0 * np.pi
        op = assemble(make_torus(nx, ny, lx, ly))
        hx, hy = lx / nx, ly / ny
        kx, ky = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        symbol = -4.0 / hx**2 * np.sin(np.pi * kx / nx) ** 2 - 4.0 / hy**2 * np.sin(np.pi * ky / ny) ** 2
        values = op.eigensystem[0]
        assert np.max(np.abs(np.sort(values) - np.sort(symbol.ravel()))) < 1e-10
        assert check_self_adjoint(op, seed=4).passed

    def test_ou_spectrum(self, gauss_line_op):
        pairs = eigenpairs(gauss_line_op, 6)
        expected = -0.5 * np.arange(6)
        gap = max(abs(p.eigenvalue - e) for p, e in zip(pairs, expected))
        assert gap < 1e-10

    def test_ou_eigenfunctions_from_recurrence(self, gauss_line, gauss_line_op):
        # independent oracle: probabilists' polynomials He_k(x/sqrt(2)) built by
        # the three-term recurrence are exact eigenfunctions with rate -k/2
        z = gauss_line.coords[:, 0] / np.sqrt(2.0)
        polys = [np.ones_like(z), z]
        for k in range(1, 8):
            polys.append(z * polys[k] - k * polys[k - 1])
        for k in range(8):
            u = Field(gauss_line, polys[k])
            residual = gauss_line_op.apply(u).values[:, 0] + 0.5 * k * polys[k]
            res_field = Field(gauss_line, residual)
            norm = np.sqrt(weighted_inner(res_field, res_field))
            scale = np.sqrt(weighted_inner(u, u))
            assert norm < 1e-9 * scale, f"mode {k}"

    def test_leading_mode_is_constant(self, weighted_circle_op):
        pairs = eigenpairs(weighted_circle_op, 1)
        assert abs(pairs[0].eigenvalue) < 1e-10
        values = pairs[0].eigenfield.values[:, 0]
        assert np.max(np.abs(values - values.mean())) < 1e-8

    def test_spectrum_nonpositive_and_orthonormal(self, conformal_torus_op):
        pairs = eigenpairs(conformal_torus_op, 12)
        for pair in pairs:
            assert pair.eigenvalue <= 1e-10
        for i, pi_ in enumerate(pairs):
            for j, pj in enumerate(pairs):
                expected = 1.0 if i == j else 0.0
                inner = weighted_inner(pi_.eigenfield, pj.eigenfield)
                assert abs(inner - expected) < 1e-10

    @pytest.mark.parametrize("side", [16, 32])
    def test_full_basis_is_mu_orthonormal_to_round_off(self, side):
        geom = make_conformal_torus(side)
        vals, vecs = assemble(geom).eigensystem
        gram = vecs.T @ (geom.mu[:, None] * vecs)
        assert np.max(np.abs(gram - np.eye(vals.size))) <= 1e-13

    def test_eigenvalues_nonincreasing(self, weighted_circle_op, conformal_torus_op):
        for op in (weighted_circle_op, conformal_torus_op):
            vals, _ = op.eigensystem
            assert np.all(np.diff(vals) <= 0.0)

    def test_eigenvectors_are_the_reversed_solve_with_positive_strides(self):
        # V is LAPACK's output with its columns reversed in place, not a reversed view, whose
        # negative column stride keeps numpy's matmul off BLAS; its bits are the same
        for op in SuiteContext(seed=0).operators.values():
            vals, vecs = op.eigensystem
            assert vecs.flags.f_contiguous and all(stride > 0 for stride in vecs.strides)
            assert np.all(np.diff(vals) <= 0.0)
            ascending, solved = scipy.linalg.eigh(op.symmetric.toarray().T, driver="evd")
            assert np.array_equal(vals, ascending[::-1])
            assert np.array_equal(vecs, solved[:, ::-1] / op.root[:, None])

    def test_in_place_solve_corrupts_nothing_shared(self, weighted_circle):
        op = assemble(weighted_circle)  # a fresh operator: eigensystem is cached
        before = op.symmetric.toarray()
        data = op.symmetric.data.copy()
        vals, vecs = op.eigensystem
        assert np.array_equal(op.symmetric.toarray(), before)
        assert np.array_equal(op.symmetric.data, data)
        assert not np.shares_memory(vecs, before)

    @pytest.mark.parametrize("where", ["flat-circle", "circle", "torus", "gauss-line", "gauss-370"])
    def test_stored_form_is_symmetric_bit_for_bit(self, where):
        # S = -W^T W is a Gram matrix: its (i, j) and (j, i) entries sum the same products,
        # and it agrees to round-off with the row-scaled R L R^{-1} of L = -M^{-1} G^T C G
        ctx = SuiteContext(seed=0)
        geometry = {"flat-circle": ctx.flat_circle, "circle": ctx.circle, "torus": ctx.torus,
                    "gauss-line": ctx.gauss, "gauss-370": make_gauss_line(370)}[where]
        op = assemble(geometry)
        S = op.symmetric
        assert S is op.symmetric and not S.data.flags.writeable
        dense = S.toarray()
        assert np.array_equal(dense, dense.T)
        G, C, root = geometry.differences, geometry.weights, np.sqrt(geometry.mu)
        scaled = -(G.T @ (C[:, None] * G)).toarray() / geometry.mu[:, None]
        scaled *= root[:, None]
        scaled /= root[None, :]
        assert np.max(np.abs(dense - scaled)) <= 8 * np.finfo(float).eps * np.max(np.abs(dense))

    def test_eigensolve_peaks_near_three_dense_matrices(self):
        # the symmetrized matrix, overwritten by the eigenvectors, plus dsyevd's 2 n^2 workspace;
        # an out-of-place solve holds a fourth n x n array
        op = assemble(make_conformal_torus(32))
        n = op.geometry.node_count
        _, peak = peak_allocated(lambda: op.eigensystem)
        assert peak < 3.25 * 8 * n * n

    def test_eigensystem_is_read_only(self, conformal_torus_op):
        vals, vecs = conformal_torus_op.eigensystem
        assert not vals.flags.writeable and not vecs.flags.writeable
        with pytest.raises(ValueError):
            vecs[0, 0] = 1.0
        with pytest.raises(ValueError):
            vals[0] = 1.0

    def test_residual_invariant(self, conformal_torus_op):
        for pair in eigenpairs(conformal_torus_op, 8):
            lhs = conformal_torus_op.apply(pair.eigenfield).values
            gap = Field(conformal_torus_op.geometry, lhs - pair.eigenvalue * pair.eigenfield.values)
            assert np.sqrt(weighted_inner(gap, gap)) < 1e-8

    def test_matches_dense_nonsymmetric_eigensolve(self):
        # brute force on a small weighted circle: plain dense eig of L
        base = make_circle(48, TWO_PI)
        geom = make_circle(48, TWO_PI, 0.5 * np.sin(base.coords[:, 0]))
        op = assemble(geom)
        structured = np.array([p.eigenvalue for p in eigenpairs(op, 48)])
        brute = np.sort(scipy.linalg.eig(drift_matrix(op).toarray())[0].real)[::-1]
        assert np.max(np.abs(structured - brute)) < 1e-10

    def test_gauss_line_matches_dense_solve(self):
        op = assemble(make_gauss_line(48))
        structured = np.array([p.eigenvalue for p in eigenpairs(op, 6)])
        brute = np.sort(scipy.linalg.eigh(op.symmetric.toarray())[0])[::-1][:6]
        assert np.max(np.abs(structured - brute)) < 1e-12

    def test_dense_limit_fails_fast(self):
        assert 48 * 48 <= MAX_DENSE_NODES <= 4096
        op = assemble(make_torus(128, 128, TWO_PI, TWO_PI))
        with pytest.raises(InvalidInputError, match="dense eigensolve"):
            op.eigensystem
        with pytest.raises(InvalidInputError):
            eigenpairs(op, 1)

    def test_k_out_of_range(self, flat_circle_op):
        with pytest.raises(InvalidInputError):
            eigenpairs(flat_circle_op, 0)
        with pytest.raises(InvalidInputError):
            eigenpairs(flat_circle_op, 129)


def _splu_references() -> list:
    """(module, definition) of each place the package names ``splu``, a method as ``Class.method``.

    A name is a call's attribute or name, or an import, so an alias counts too.
    """
    found = []
    for path in sorted(Path(parafreq.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                members = [(f"{top.name}.{getattr(m, 'name', '')}".rstrip("."), m) for m in top.body]
            else:
                members = [(getattr(top, "name", None), top)]
            for owner, member in members:
                for node in ast.walk(member):
                    if "splu" in (getattr(node, "id", None), getattr(node, "attr", None),
                                  node.name if isinstance(node, ast.alias) else None):
                        found.append((path.name, owner))
    return found


def test_only_the_factor_method_calls_splu():
    # one factor form per operator, I - gamma S, cached per shift: the stepper and the
    # Krylov flows share it, and no second factor path comes back
    assert _splu_references() == [("operators.py", "DriftOperator.factor")]


@pytest.fixture(scope="module")
def solve_operators():
    x = make_circle(2048, TWO_PI).coords[:, 0]
    return {
        "circle-2048": assemble(make_circle(2048, TWO_PI, 0.5 * np.sin(x) + 0.3 * np.cos(3.0 * x))),
        "torus-48": assemble(make_torus(48, 48, TWO_PI, TWO_PI)),
        "gauss-line-370": assemble(make_gauss_line(MAX_GAUSS_ORDER)),
    }


# dt/2 of 400 steps over [0, 1], and the Krylov shift (b - a)/8 of [0, 1] and of [0, 1e4]
@pytest.mark.parametrize("gamma", [0.5 / 400, 1.0 / 8, 1e4 / 8])
@pytest.mark.parametrize("name", ["circle-2048", "torus-48", "gauss-line-370"])
def test_factor_solves_to_round_off(solve_operators, name, gamma):
    # The normwise backward error of a solve, |A x - r| / (|A|_1 |x| + |r|), A = I - gamma S,
    # gated at n eps (c = 1): a backward-stable LU solve is within a small multiple of
    # n eps, and these read at most 0.0055 n eps (the Gauss line at gamma = dt/2).  The
    # residual relative to |r| alone grows with |gamma S|, the conditioning and not the
    # factor: 2.4e3 n eps on circle 2048 at gamma = 1250, where |gamma S|_1 is 5.3e8.
    # |A|_1 bounds |A|_2 for a symmetric A, so the gate is the looser of the two.
    op = solve_operators[name]
    n = op.geometry.node_count
    matrix = scipy.sparse.eye_array(n, format="csr") - gamma * op.symmetric
    norm = np.max(np.abs(matrix).sum(axis=0))
    r = np.random.default_rng(5).standard_normal((n, 3))
    x = op.factor(gamma).solve(r)
    residual = np.linalg.norm(matrix @ x - r, axis=0)
    backward = residual / (norm * np.linalg.norm(x, axis=0) + np.linalg.norm(r, axis=0))
    assert np.all(backward <= n * np.finfo(float).eps)


def test_an_operator_holds_the_last_shifts_factor_alone(monkeypatch):
    # K distinct shifts leave one factor held, and the held one is dropped before the
    # next splu runs, so two factors are never alive at once; a repeated shift reuses it
    op = assemble(make_torus(16, 16, TWO_PI, TWO_PI))
    splu, held = scipy.sparse.linalg.splu, []

    def counting(*args, **kwargs):
        held.append(len(op._factor))
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    shifts = [1.0 / 8, 1.0 / 800, 1.0 / 400, 1.0 / 8]
    for gamma in shifts:
        lu = op.factor(gamma)
        assert op.factor(gamma) is lu and list(op._factor) == [gamma]
    assert held == [0] * len(shifts)


def test_the_operator_stores_one_matrix():
    # S alone: L is applied as R^{-1} S R, and no second representation comes back
    init = [f.name for f in dataclasses.fields(DriftOperator) if f.init]
    assert init == ["geometry", "symmetric"]
    readers = [
        path.name
        for path in sorted(Path(parafreq.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "matrix"
    ]
    assert readers == []
