import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paracr import linalg, solver
from paracr.surface import ModelSurface
from conftest import (
    binomial_gamma,
    dense_rows,
    monomial_gamma,
    random_fraction,
    rational_gamma_surfaces,
    sparse_rows,
    suite_surfaces,
    unit_system,
)


def frac_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def apply_matrix(rows, vec):
    return [sum(r * v for r, v in zip(row, vec)) for row in rows]


class TestNullspace:
    def test_simple_kernel(self):
        rows = frac_matrix([[1, -1, 0], [0, 0, 0]])
        basis = linalg.nullspace_bareiss(rows, 3)
        assert len(basis) == 2
        for vec in basis:
            assert all(v == 0 for v in apply_matrix(rows, vec))

    def test_full_rank_kernel_empty(self):
        rows = frac_matrix([[2, 1], [1, 1]])
        assert linalg.nullspace_bareiss(rows, 2) == []

    def test_normalization(self):
        rows = frac_matrix([[Fraction(1, 2), Fraction(1, 3)]])
        (vec,) = linalg.nullspace_bareiss(rows, 2)
        assert vec[0] > 0
        assert all(v.denominator == 1 for v in vec)
        assert vec == (Fraction(2), Fraction(-3))

    def test_agreement_with_gauss_jordan(self):
        rng = random.Random(17)
        for _ in range(150):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            rows = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            b1 = linalg.nullspace_bareiss(rows, ncols)
            b2 = linalg.nullspace_gauss_jordan(rows, ncols)
            assert len(b1) == len(b2)
            assert sorted(b1) == sorted(b2)
            for vec in b1:
                assert all(v == 0 for v in apply_matrix(rows, vec))


def weight_systems():
    """(label, sparse rows, ncols) of the tangency systems for weights in [-k, 3k] of the
    suite and rational-gamma surfaces: the full ansatz's, and the prolonged candidates'
    that ``solve_weight`` passes to ``nullspace_modular`` through ``_solve``, recorded on
    an empty cache of its own.  ``solve_algebra`` solves a subset of these weights, the
    same way."""
    systems = []
    modular = linalg.nullspace_modular
    for s in suite_surfaces() + rational_gamma_surfaces():
        for m in range(-s.k, 3 * s.k + 1):
            ansatz = solver.build_ansatz(s, m)
            if len(ansatz):
                _, rows = unit_system(ansatz)
                systems.append((f"k={s.k} gamma={s.gamma} m={m}", rows, len(ansatz)))
        served = []

        def recording(rows, ncols):
            served.append((rows, ncols))
            return modular(rows, ncols)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "nullspace_modular", recording)
            cold = lru_cache(maxsize=None)(solver.solve_weight.__wrapped__)
            patch.setattr(solver, "solve_weight", cold)
            for m in range(-s.k, 3 * s.k + 1):
                cold(s, m)  # the weights below m are cached: one solve, weight m's
        assert len(served) == 4 * s.k + 1
        for m, (rows, ncols) in enumerate(served, start=-s.k):
            systems.append((f"k={s.k} gamma={s.gamma} m={m} prolonged", rows, ncols))
    return systems


def rank_mod_p(rows, ncols, p):
    """Rank mod p of sparse rows, each scaled to integers by the lcm of its denominators,
    by dense elimination: the reference for when ``nullspace_modular`` needs Bareiss."""
    m = []
    for row in dense_rows(rows, ncols):
        denom = lcm(*(Fraction(v).denominator for v in row))
        m.append([int(v * denom) % p for v in row])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv
            m[i] = [(v - f * w) % p for v, w in zip(m[i], m[rank])]
        rank += 1
    return rank


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Counts the rows of each ``nullspace_bareiss`` call ``nullspace_modular`` makes."""
    calls = []
    bareiss = linalg.nullspace_bareiss

    def counting_bareiss(rows, ncols):
        calls.append(len(rows))
        return bareiss(rows, ncols)

    monkeypatch.setattr(linalg, "nullspace_bareiss", counting_bareiss)
    return calls


def fallback_calls(rows, ncols):
    """The ``bareiss_calls`` of ``nullspace_modular``: none at full rank mod p, else
    one, on all the rows."""
    return [len(rows)] if rank_mod_p(rows, ncols, linalg._PRIME) < ncols else []


@pytest.fixture(scope="module")
def kernel_systems():
    """(label, sparse rows, ncols, Bareiss basis of the dense rows) of the weight_ladder
    surfaces up to weight 32 and of the suite surfaces on [-k, 3k]."""
    ladder = [ModelSurface(3, (3, 3)), ModelSurface(3, (1, 0)), ModelSurface(4, (1, 0, 1))]
    spans = [(s, 32) for s in ladder] + [(s, 3 * s.k) for s in suite_surfaces()]
    systems = []
    for s, top in spans:
        for m in range(-s.k, top + 1):
            ansatz = solver.build_ansatz(s, m)
            if len(ansatz):
                _, rows = unit_system(ansatz)
                basis = linalg.nullspace_bareiss(dense_rows(rows, len(ansatz)), len(ansatz))
                systems.append((f"k={s.k} gamma={s.gamma} m={m}", rows, len(ansatz), basis))
    return systems


class TestNullspaceModular:
    @pytest.mark.parametrize("prime", [linalg._PRIME, 3, 2], ids=["2^61-1", "p=3", "p=2"])
    def test_equals_bareiss_on_weight_systems(self, prime, monkeypatch, bareiss_calls):
        monkeypatch.setattr(linalg, "_PRIME", prime)
        lost = 0
        for label, rows, ncols in weight_systems():
            expected = linalg.nullspace_bareiss(dense_rows(rows, ncols), ncols)
            bareiss_calls.clear()
            assert linalg.nullspace_modular(rows, ncols) == expected, label
            assert bareiss_calls == fallback_calls(rows, ncols), label
            lost += bool(bareiss_calls) and not expected
        if prime < 5:
            # a small prime loses rank on some systems of kernel {0}, so the fallback runs
            assert lost > 0

    def test_rank_lost_mod_p_is_repaired(self, monkeypatch, bareiss_calls):
        monkeypatch.setattr(linalg, "_PRIME", 3)
        assert linalg.nullspace_modular(sparse_rows([[3, 0], [0, 1]]), 2) == []
        # [3, 0] is zero mod 3, so rank mod p falls short and Bareiss runs on both rows
        assert bareiss_calls == [2]

    @pytest.mark.parametrize("prime", [linalg._PRIME, 3], ids=["2^61-1", "p=3"])
    def test_row_order_does_not_change_the_kernel(
        self, prime, monkeypatch, bareiss_calls, kernel_systems
    ):
        monkeypatch.setattr(linalg, "_PRIME", prime)
        rng = random.Random(f"row-order-{prime}")
        lost = 0
        for label, rows, ncols, expected in kernel_systems:
            calls = fallback_calls(rows, ncols)
            for order in [rows] + [rng.sample(rows, len(rows)) for _ in range(3)]:
                bareiss_calls.clear()
                assert linalg.nullspace_modular(order, ncols) == expected, label
                assert bareiss_calls == calls, label
            lost += bool(calls) and not expected
        if prime == 3:
            assert lost > 0

    def test_rows_after_full_rank_are_not_read(self):
        class Unread(list):
            def __iter__(self):
                raise AssertionError("a row after full rank was read")

        rows = [[(0, 1), (1, 1)], Unread([(0, 5), (1, Fraction(1, 7)), (2, 1)]), [(1, 2)]]
        assert linalg.nullspace_modular(rows, 2) == []

    def test_singleton_rows_need_no_inverse(self, monkeypatch):
        inverses = []

        def counting_pow(*args):
            inverses.append(args)
            return pow(*args)

        monkeypatch.setattr(linalg, "pow", counting_pow, raising=False)
        rows = [[(0, 1), (2, 3)], [(2, 5)], [(1, -4)], [(0, Fraction(2, 3))]]
        assert linalg.nullspace_modular(rows, 3) == []
        assert inverses == []

    def test_full_rank_mod_p_skips_bareiss(self, bareiss_calls):
        assert linalg.nullspace_modular(sparse_rows([[1, 2], [0, 0], [3, 4]]), 2) == []
        assert bareiss_calls == []

    def test_zero_and_empty_rows(self):
        for rows in ([], [[0, 0, 0]], [[0, 0, 0], [Fraction(0), 0, 0]]):
            basis = linalg.nullspace_modular(sparse_rows(rows), 3)
            assert basis == linalg.nullspace_bareiss(rows, 3)
            assert len(basis) == 3
        assert linalg.nullspace_modular([], 0) == []

    def test_fraction_entries(self):
        rng = random.Random(23)
        for _ in range(150):
            ncols, rank = rng.randint(1, 6), rng.randint(0, 4)
            gens = random_rows(rng, rank, ncols)
            rows = []
            for _ in range(rng.randint(0, 8)):
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in gens]
                rows.append([sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(ncols)])
            assert linalg.nullspace_modular(sparse_rows(rows), ncols) == linalg.nullspace_bareiss(
                rows, ncols
            )

    @pytest.mark.parametrize("prime", [2, 3, 5])
    def test_duplicate_rows_and_multiples_of_p(self, prime, monkeypatch):
        monkeypatch.setattr(linalg, "_PRIME", prime)
        rng = random.Random(prime)
        for _ in range(100):
            ncols = rng.randint(1, 6)
            base = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
            rows = base + [list(rng.choice(base)) for _ in range(2)]
            rows += [[prime * rng.randint(-3, 3) * v for v in row] for row in base]
            rows += [[prime * rng.randint(-3, 3) for _ in range(ncols)]]
            rng.shuffle(rows)
            assert linalg.nullspace_modular(sparse_rows(rows), ncols) == linalg.nullspace_bareiss(
                rows, ncols
            )

    @pytest.mark.parametrize(
        "prime", [2, 3, 5, linalg._PRIME], ids=["p=2", "p=3", "p=5", "2^61-1"]
    )
    def test_random_sparse_rows(self, prime, monkeypatch, bareiss_calls):
        monkeypatch.setattr(linalg, "_PRIME", prime)
        rng = random.Random(prime)
        zero = (0, Fraction(0))
        lost = 0
        for _ in range(150):
            ncols = rng.randint(1, 7)
            gens = [
                [rng.choice(zero + (rng.randint(-4, 4), random_fraction(rng))) for _ in range(ncols)]
                for _ in range(rng.randint(0, ncols))
            ]
            rows = []
            for _ in range(rng.randint(0, 8)):
                coeffs = [rng.choice((0, 1, rng.randint(-3, 3), random_fraction(rng))) for _ in gens]
                rows.append([sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(ncols)])
            rows += [list(rng.choice(rows)) for _ in range(2) if rows]
            rows += [[prime * v for v in rng.choice(gens)] for _ in range(2) if gens]
            rng.shuffle(rows)
            # pairs in any order, with the zero values of some columns written out
            sparse = []
            for row in rows:
                pairs = [(j, v) for j, v in enumerate(row) if v or rng.random() < 0.3]
                rng.shuffle(pairs)
                sparse.append(pairs)
            assert dense_rows(sparse, ncols) == rows
            expected = linalg.nullspace_bareiss(rows, ncols)
            bareiss_calls.clear()
            assert linalg.nullspace_modular(sparse, ncols) == expected
            assert bareiss_calls == fallback_calls(sparse, ncols)
            lost += bool(bareiss_calls) and not expected
        if prime < 5:
            assert lost > 0


class TestKernelNormalForm:
    @settings(max_examples=200)
    @given(st.data())
    def test_scrambled_kernel_gives_bareiss_basis(self, data):
        ncols = data.draw(st.integers(1, 6), label="ncols")
        entry = st.integers(-3, 3)
        rows = data.draw(
            st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5), label="rows"
        )
        kernel = linalg.nullspace_bareiss(rows, ncols)
        d = len(kernel)
        mix = data.draw(
            st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d), label="mix"
        )
        assume(linalg.rank(mix, d) == d)
        scrambled = [
            [sum(mix[i][j] * kernel[j][c] for j in range(d)) for c in range(ncols)]
            for i in range(d)
        ]
        assert linalg.kernel_normal_form(scrambled, ncols) == kernel

    def test_empty_and_full_kernels(self):
        assert linalg.kernel_normal_form([], 3) == []
        assert linalg.kernel_normal_form([[1, 1], [0, -2]], 2) == [(1, 0), (0, 1)]


def reference_rref(rows, ncols):
    """Gauss-Jordan over Fraction, entry by entry: the definition ``rref`` must match."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivot_cols


def random_rows(rng, nrows, ncols, span=5, den=3):
    return [
        [Fraction(rng.randint(-span, span), rng.randint(1, den)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


class TestRref:
    def assert_matches_reference(self, rows, ncols):
        reduced, pivot_cols = linalg.rref(rows, ncols)
        assert (reduced, pivot_cols) == reference_rref(rows, ncols)
        # the scalar rule: an int where integral, a Fraction only where not
        assert all(
            type(v) is (int if v.denominator == 1 else Fraction) for row in reduced for v in row
        )

    @pytest.mark.parametrize("shape", ["tall", "wide", "square"])
    def test_random_matrices(self, shape):
        rng = random.Random(f"rref-{shape}")
        for _ in range(40):
            t = rng.randint(1, 8)
            shapes = {"tall": (2 * t + 16, t), "wide": (t, 2 * t + 3), "square": (t, t)}
            nrows, ncols = shapes[shape]
            self.assert_matches_reference(random_rows(rng, nrows, ncols), ncols)

    def test_rank_deficient(self):
        rng = random.Random(5)
        for _ in range(40):
            ncols, rank = rng.randint(2, 7), rng.randint(1, 3)
            gens = random_rows(rng, rank, ncols)
            rows = []
            for _ in range(rng.randint(rank, 9)):
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in gens]
                rows.append([sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(ncols)])
            self.assert_matches_reference(rows, ncols)

    def test_zero_rows_and_empty(self):
        self.assert_matches_reference([], 3)
        self.assert_matches_reference([[0, 0, 0], [0, 0, 0]], 3)
        self.assert_matches_reference([[0, 0, 0], [0, 2, 4], [0, 0, 0], [1, 1, 1]], 3)
        assert linalg.rref([], 3) == ([], [])

    def test_mixed_entries_and_large_numerators(self):
        rng = random.Random(11)
        for _ in range(30):
            ncols = rng.randint(2, 6)
            rows = [
                [
                    rng.randint(-(10**30), 10**30)
                    if rng.random() < 0.5
                    else Fraction(rng.randint(-(10**25), 10**25), rng.randint(1, 10**12))
                    for _ in range(ncols)
                ]
                for _ in range(rng.randint(1, 8))
            ]
            self.assert_matches_reference(rows, ncols)

    def test_tall_full_rank(self):
        rng = random.Random("rref-tall-full-rank")
        for _ in range(40):
            t = rng.randint(1, 8)
            rows = random_rows(rng, 2 * t + 16, t, span=9, den=5)
            assert linalg.rref(rows, t)[1] == list(range(t))
            self.assert_matches_reference(rows, t)

    @pytest.mark.parametrize("full", [False, True], ids=["deficient", "full"])
    def test_last_rank_raising_row_comes_last(self, full):
        # every row but the last lies in the span of the first rank - 1 generators
        rng = random.Random(f"rref-last-{full}")
        for _ in range(40):
            ncols = rng.randint(2, 7)
            rank = ncols if full else rng.randint(1, ncols - 1)
            gens = random_rows(rng, rank, ncols)
            if len(reference_rref(gens, ncols)[1]) < rank:
                continue
            rows = []
            for _ in range(rng.randint(rank - 1, 12)):
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in gens[:-1]]
                rows.append([sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(ncols)])
            rows[: rank - 1] = gens[:-1]
            assert len(reference_rref(rows, ncols)[1]) == rank - 1
            rows.append(gens[-1])
            assert len(linalg.rref(rows, ncols)[1]) == rank
            self.assert_matches_reference(rows, ncols)

    def test_row_order_does_not_change_the_result(self):
        rng = random.Random("rref-shuffle")
        for _ in range(40):
            ncols, rank = rng.randint(1, 7), rng.randint(0, 4)
            gens = random_rows(rng, rank, ncols)
            rows = [[sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(ncols)]
                    for coeffs in ([rng.randint(-3, 3) for _ in gens] for _ in range(9))]
            rows += random_rows(rng, rng.randint(0, 2), ncols)
            expected = linalg.rref(rows, ncols)
            for _ in range(5):
                rng.shuffle(rows)
                assert linalg.rref(rows, ncols) == expected

    def test_stops_reading_at_full_column_rank(self):
        def counted(rows, seen):
            for row in rows:
                seen.append(row)
                yield row

        rng = random.Random("rref-early-stop")
        for _ in range(40):
            ncols = rng.randint(1, 6)
            gens = random_rows(rng, ncols, ncols)
            if len(reference_rref(gens, ncols)[1]) < ncols:
                continue
            # zero rows, and the second multiple of a generator, raise no rank
            rows = []
            for g in gens:
                rows += [[0] * ncols, g, [3 * v for v in g]]
                rng.shuffle(rows)
            ranks = [len(reference_rref(rows[:i], ncols)[1]) for i in range(len(rows) + 1)]
            last = ranks.index(ncols) - 1  # the row that completes the rank
            tail = random_rows(rng, 5, ncols)
            seen = []
            assert linalg.rref(counted(rows[: last + 1] + tail, seen), ncols) == (
                reference_rref(rows, ncols)
            )
            assert len(seen) == last + 1
            # short of full rank, every row is read
            seen = []
            deficient = [row for row in rows if row not in (gens[-1], [3 * v for v in gens[-1]])]
            linalg.rref(counted(deficient, seen), ncols)
            assert len(seen) == len(deficient)

    @pytest.mark.parametrize(
        "s",
        [ModelSurface(4, monomial_gamma(4, 2)), ModelSurface(5, binomial_gamma(5, 2, 3))],
        ids=["monomial-k4", "binomial-k5"],
    )
    def test_tangency_systems(self, s):
        for m in range(-s.k, 3 * s.k + 1):
            ansatz = solver.build_ansatz(s, m)
            _, rows = unit_system(ansatz)
            self.assert_matches_reference(dense_rows(rows, len(ansatz)), len(ansatz))


class TestRank:
    @pytest.mark.parametrize("entries", ["int", "Fraction"])
    def test_equals_rref_pivot_count(self, entries):
        rng = random.Random(f"rank-{entries}")
        if entries == "int":
            draw, zero = (lambda: rng.randint(-4, 4)), 0
        else:
            draw, zero = (lambda: random_fraction(rng)), Fraction(0)
        seen = set()
        for _ in range(150):
            ncols = rng.randint(0, 6)
            gens = [[draw() for _ in range(ncols)] for _ in range(rng.randint(0, ncols + 1))]
            rows = [
                [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(ncols)]
                for coeffs in ([rng.randint(-2, 2) for _ in gens] for _ in range(rng.randint(0, 4)))
            ]
            rows += gens + [[zero] * ncols for _ in range(rng.randint(0, 2))]
            rng.shuffle(rows)
            rank = linalg.rank(rows, ncols)
            assert rank == len(linalg.rref(rows, ncols)[1])
            if ncols:
                seen.add("full" if rank == ncols else "deficient")
        assert seen == {"full", "deficient"}


class TestSolveInSpan:
    def test_inside(self):
        basis = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
        coeffs = linalg.solve_in_span(basis, (Fraction(3), Fraction(2)))
        assert coeffs == [Fraction(1), Fraction(2)]

    def test_outside(self):
        basis = [(Fraction(1), Fraction(0), Fraction(0))]
        assert linalg.solve_in_span(basis, (0, 0, 1)) is None

    def test_empty_basis(self):
        assert linalg.solve_in_span([], (0, 0)) == []
        assert linalg.solve_in_span([], (1, 0)) is None


class TestSignature:
    def test_diagonal(self):
        assert linalg.symmetric_signature(frac_matrix([[2, 0], [0, -3]])) == (1, 1, 0)

    def test_degenerate(self):
        assert linalg.symmetric_signature(frac_matrix([[0, 0], [0, 0]])) == (0, 0, 2)

    def test_hyperbolic_plane(self):
        # x y form has signature (1, 1)
        assert linalg.symmetric_signature(frac_matrix([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_congruence_invariance(self):
        rng = random.Random(4)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = Fraction(rng.randint(-4, 4))
                    m[i][j] = v
                    m[j][i] = v
            sig = linalg.symmetric_signature(m)
            # congruence by a random invertible triangular matrix
            t = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                t[i][i] = Fraction(rng.choice([1, -1, 2]))
                for j in range(i + 1, n):
                    t[i][j] = Fraction(rng.randint(-2, 2))
            tm = [
                [
                    sum(t[p][i] * m[p][q] * t[q][j] for p in range(n) for q in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert linalg.symmetric_signature(tm) == sig

    def test_matches_congruence_reference(self):
        # seeded symmetric matrices with n <= 7: full random ones, low-rank
        # B B^T - C C^T (singular), H D H with a rational reflection H and a
        # diagonal D of repeated entries (repeated eigenvalues), and rational entries
        rng = random.Random(1409)

        def rand_matrix(rows, cols, span=3):
            return [[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)]

        def gram(b, c):
            n = len(b)
            return [
                [
                    sum(b[i][t] * b[j][t] for t in range(len(b[0])))
                    - sum(c[i][t] * c[j][t] for t in range(len(c[0])))
                    for j in range(n)
                ]
                for i in range(n)
            ]

        kinds = set()
        for trial in range(400):
            n = rng.randint(1, 7)
            kind = trial % 4
            if kind == 0:
                m = rand_matrix(n, n)
                m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            elif kind == 1:
                m = gram(rand_matrix(n, rng.randint(1, 2)), rand_matrix(n, rng.randint(0, 2)))
            elif kind == 2:
                u = [Fraction(rng.randint(-2, 2)) for _ in range(n - 1)] + [Fraction(1)]
                norm = sum(c * c for c in u)
                h = [[int(i == j) - 2 * u[i] * u[j] / norm for j in range(n)] for i in range(n)]
                d = [rng.choice([-2, 0, 0, 3, 3]) for _ in range(n)]
                m = [
                    [sum(h[i][t] * d[t] * h[t][j] for t in range(n)) for j in range(n)]
                    for i in range(n)
                ]
            else:
                m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
                     for _ in range(n)]
                m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            sig = _congruence_signature(m)
            kinds.add((kind, sig[2] > 0))
            assert linalg.symmetric_signature(m) == sig, m
        assert {(1, True), (2, True), (0, False)} <= kinds

    def test_killing_forms_match_congruence_reference(self):
        from paracr.liealg import killing_form, structure_constants
        from conftest import k_ladder_surfaces
        from test_liealg import restrict_to_subalgebra, restricted_killing

        forms = []
        for s in suite_surfaces() + rational_gamma_surfaces() + k_ladder_surfaces():
            sc = structure_constants(solver.solve_algebra(s))
            killing = killing_form(sc)
            forms.append(killing)
            derived = linalg.rref(
                [sc.bracket_vec(u, v) for u in _unit_vectors(sc.dimension)
                 for v in _unit_vectors(sc.dimension)],
                sc.dimension,
            )[0]
            if 0 < len(derived) < sc.dimension:
                forms.append(killing_form(restrict_to_subalgebra(sc, derived)))
                forms.append(restricted_killing(killing, derived))
        for form in forms:
            assert linalg.symmetric_signature(form) == _congruence_signature(form)


def _unit_vectors(n):
    return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]


def _congruence_signature(matrix):
    # the congruence diagonalization that symmetric_signature used before it
    # counted sign variations of the characteristic polynomial; kept as the
    # reference for that change
    n = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    for i in range(n):
        if m[i][i] == 0:
            swap = None
            for j in range(i + 1, n):
                if m[j][j] != 0:
                    swap = j
                    break
            if swap is not None:
                m[i], m[swap] = m[swap], m[i]
                for row in m:
                    row[i], row[swap] = row[swap], row[i]
            else:
                off = None
                for j in range(i + 1, n):
                    if m[i][j] != 0:
                        off = j
                        break
                if off is None:
                    continue  # row and column vanish: zero diagonal entry
                for col in range(n):
                    m[i][col] += m[off][col]
                for row in m:
                    row[i] += row[off]
        pivot = m[i][i]
        if pivot == 0:
            continue
        for j in range(i + 1, n):
            if m[j][i] != 0:
                f = m[j][i] / pivot
                for col in range(n):
                    m[j][col] -= f * m[i][col]
                for row in m:
                    row[j] = row[j] - f * row[i]
    pos = sum(1 for i in range(n) if m[i][i] > 0)
    neg = sum(1 for i in range(n) if m[i][i] < 0)
    zero = n - pos - neg
    return (pos, neg, zero)
