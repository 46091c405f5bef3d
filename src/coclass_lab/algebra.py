"""Lie algebras given by structure constants: brackets, series, invariants.

A :class:`LieAlgebra` stores the sparse structure-constant table only for
index pairs i < j; the (j, i) value is derived by sign and [e_i, e_i] = 0,
so antisymmetry cannot be violated by construction.  The Jacobi identity
is the one axiom that needs checking, and :meth:`LieAlgebra.validate`
reports each failing triple together with its residual vector.

A :class:`LieAlgebra` must not be mutated after construction: it caches a
per-index bracket table, L', a generating set and its lower and upper
central series on first use.  ``derived``, ``center``, ``second_center``,
``is_nilpotent``, ``nilpotency_class``, ``coclass``, ``generator_indices``
and both ``*_central_series`` methods read the cached values, so every
invariant of one algebra shares one computation.

L' is the span of the table's nonzero rows [e_i, e_j], with no bracket
computed.  Both series then bracket with a generating set X of L instead
of the whole basis (W. de Graaf, *Lie Algebras: Theory and Algorithms*,
2000, ch. 1).  Two lemmas justify it:

- As X generates L and ad [a, b] = [ad a, ad b], ad(L) lies in the
  associative algebra generated by ad(X), spanned by the words
  ad(g_1) ... ad(g_m) with m >= 1.  Every L^k is an ideal, so
  ad(X)-stable, and such a word maps L^k into ad(g_1)(L^k); so
  [L, L^k] = [X, L^k].
- For x in L and an ideal Z_k, {w : [x, w] in Z_k} is a subspace, and Jacobi,
  [x, [g, w]] = [[x, g], w] + [g, [x, w]], keeps it closed under ad(X) once it
  holds X.  So when [x, g] lies in Z_k for every g in X it is all of L, and
  Z_{k+1} = {x : [x, g] in Z_k for all g in X}.

A third fact ends the upper series without a system: once L' lies in
Z_k, every [x, g] lies in L' and so in Z_k, and Z_{k+1} = L.  Each other
step solves for x with Z_k given by constraint rows read off its RREF basis:
a vector is the combination of the rows weighted by its pivot coordinates,
so for each non-pivot column q, x_q - sum_r x_pivot(r) r[q] = 0.  These
n - dim Z_k rows vanish on Z_k and are independent (row q alone is nonzero
at q), so they cut out exactly Z_k.

X is ``generator_indices()`` (a lift of a basis of L/L') when the
ad(X)-closure of span(X), the subalgebra that X generates, is L; that
closure is the one ``generator_presentation`` records step by step.  A
nilpotent L is always generated so.  Otherwise, as for sl2 (L' = L, no
generator) or sl2 + heisenberg(1, 1) (X spans only the Heisenberg part), X
is every basis index.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .fields import FieldSpec
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _span,
    basis_vec,
    invert,
    kernel,
    vec,
)


class NonNilpotentError(ValueError):
    """Raised by operations that only make sense for nilpotent algebras."""


class NotSubalgebraError(ValueError):
    """Raised when a subspace is not closed under the bracket."""


@dataclass(frozen=True)
class JacobiViolation:
    triple: tuple
    residual: Vector

    def __str__(self) -> str:
        i, j, k = self.triple
        return f"Jacobi fails on (e{i+1}, e{j+1}, e{k+1}): residual {self.residual}"


def _normalize_sc(field: FieldSpec, dim: int, pairs) -> dict:
    table, seen = {}, set()  # seen, not table: a bracket whose terms are all zero is not stored
    for (i, j), terms in pairs:
        if not (type(i) is type(j) is int and 0 <= i < j < dim):
            raise ValueError(f"structure constants need ints 0 <= i < j < dim, got ({i!r}, {j!r})")
        if (i, j) in seen:
            raise ValueError(f"duplicate bracket entry ({i}, {j})")
        seen.add((i, j))
        acc: dict = {}
        for k, c in terms:
            if not (type(k) is int and 0 <= k < dim):
                raise ValueError(f"bracket target index needs an int 0 <= k < dim, got {k!r}")
            if k in acc:
                raise ValueError(f"repeated target {k} in bracket entry ({i}, {j})")
            acc[k] = field.canon(c)
        cleaned = tuple((k, c) for k, c in sorted(acc.items()) if c)
        if cleaned:
            table[(i, j)] = cleaned
    return table


class LieAlgebra:
    """Finite-dimensional Lie algebra over F_p (p odd) or Q.

    ``sc`` is a mapping or an iterable of ((i, j), ((k, c), ...)) pairs
    with 0 <= i < j < dim and 0 <= k < dim; a repeated (i, j), or a k
    repeated within one entry, is an error.  dim, i, j and k must be ints
    (no bool or float) and each c an int or a Fraction: a catalog file's
    rules, so every accepted algebra saves to a file that loads back equal.
    """

    def __init__(self, field: FieldSpec, dim: int, sc):
        if type(dim) is not int:
            raise ValueError(f"dimension must be an int, not {type(dim).__name__}")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.field = field
        self.dim = dim
        self.sc = _normalize_sc(field, dim, sc.items() if isinstance(sc, Mapping) else sc)
        self._zeros = (field.zero,) * dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieAlgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.sc == other.sc
        )

    def __hash__(self):
        return hash((self.field, self.dim, tuple(sorted(self.sc.items()))))

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, field={self.field}, brackets={len(self.sc)})"

    # -- bracket ----------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] as a coordinate vector."""
        out = list(self._zeros)
        for k, c in self.sc.get((min(i, j), max(i, j)), ()):
            out[k] = c
        return tuple(self.field.scale(-1, out)) if i > j else tuple(out)

    def bracket(self, x: Iterable, y: Iterable) -> Vector:
        """Bilinear extension of the structure constants."""
        x, y = vec(self.field, x), vec(self.field, y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length != algebra dimension")
        return self._bracket(x, y)

    @cached_property
    def _adjacency(self) -> tuple:
        """For each i, the pairs (j, signed terms of [e_i, e_j]) with a nonzero bracket."""
        scale = self.field.scale
        adj = [[] for _ in range(self.dim)]
        for (i, j), terms in self.sc.items():
            adj[i].append((j, terms))
            ks, cs = zip(*terms)
            adj[j].append((i, tuple(zip(ks, scale(-1, cs)))))
        return tuple(map(tuple, adj))

    def _bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y] for canonical vectors of length dim.

        Walks only x's nonzero coordinates and their nonzero brackets,
        accumulating exactly and reducing once at the end.
        """
        out = list(self._zeros)
        adj = self._adjacency
        for i, xi in enumerate(x):
            if xi:
                for j, terms in adj[i]:
                    yj = y[j]
                    if yj:
                        c = xi * yj
                        for k, t in terms:
                            out[k] += c * t
        p = self.field.p
        return tuple([v % p for v in out]) if p else tuple(out)

    def _bracket_with_basis(self, x: Vector, j: int) -> Vector:
        """[x, e_j] for a canonical vector x, from the brackets of e_j alone."""
        out = list(self._zeros)
        for i, terms in self._adjacency[j]:  # terms of [e_j, e_i] = -[e_i, e_j]
            xi = x[i]
            if xi:
                for k, t in terms:
                    out[k] -= xi * t
        p = self.field.p
        return tuple([v % p for v in out]) if p else tuple(out)

    def ad_matrix(self, j: int) -> Matrix:
        """Matrix of x -> [x, e_j] acting on coordinates: column i is [e_i, e_j],
        zero unless e_j's adjacency holds i."""
        cols = [self._zeros] * self.dim
        for i, _ in self._adjacency[j]:
            cols[i] = self.bracket_basis(i, j)
        return Matrix(self.field, tuple(zip(*cols)))

    # -- validation -------------------------------------------------------

    def validate(self) -> list:
        """Jacobi residuals [[x,y],z] + [[y,z],x] + [[z,x],y] over basis triples.

        Antisymmetry holds by the storage convention, so an empty list
        means the table is a genuine Lie algebra.  Only nonzero brackets
        contribute: for each table entry [e_a, e_b] (a < b), term e_m of
        it and e_c in e_m's adjacency (c not a or b), the term of
        [[e_a, e_b], e_c] is added to the sorted triple of a, b, c, with
        sign + when (a, b, c) is a cyclic rotation of that triple (c < a
        or c > b) and - when it is not (a < c < b).  Each touched triple
        is reduced once, and the failing ones are listed in lexicographic
        order, the order of ``itertools.combinations``.
        """
        adj = self._adjacency
        sums = defaultdict(list(self._zeros).copy)
        for (a, b), terms in self.sc.items():
            for m, x in terms:
                for c, row in adj[m]:
                    if c == a or c == b:
                        continue
                    key, s = ((c, a, b), x) if c < a else ((a, b, c), x) if c > b else ((a, c, b), -x)
                    out = sums[key]
                    for l, y in row:
                        out[l] += s * y
        p = self.field.p
        violations = []
        for triple in sorted(sums):
            r = tuple([v % p for v in sums[triple]]) if p else tuple(sums[triple])
            if any(r):
                violations.append(JacobiViolation(triple, r))
        return violations

    # -- subspace machinery -------------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    def bracket_subspaces(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [x, y] over basis pairs of a x b."""
        if a.ambient_dim != self.dim or b.ambient_dim != self.dim:
            raise ValueError("ambient dimension mismatch")
        vecs = [self._bracket(x, y) for x in a.basis.rows for y in b.basis.rows]
        return _span(self.field, self.dim, vecs)

    @cached_property
    def _derived(self) -> Subspace:
        """[L, L]: the span of the table's nonzero rows."""
        return _span(self.field, self.dim, [self.bracket_basis(i, j) for i, j in self.sc])

    def derived(self) -> Subspace:
        """[L, L]."""
        return self._derived

    def center(self) -> Subspace:
        upper = self._upper_series
        return upper[min(1, len(upper) - 1)]

    def second_center(self) -> Subspace:
        upper = self._upper_series
        return upper[min(2, len(upper) - 1)]

    def _center_preimage(self, z: Subspace) -> Subspace:
        """{x : [x, g] in z for g in X}: the kernel of c . [e_g, e_i] over z's RREF constraint rows c."""
        f, n = self.field, self.dim
        rows = z.basis.rows
        pivots = [next(i for i, x in enumerate(row) if x) for row in rows]
        free = [q for q in range(n) if q not in pivots]
        # columns[k][ci] is entry k of constraint ci: x_q - sum_r x_pivot(r) r[q], q = free[ci]
        columns = {q: basis_vec(f, len(free), ci) for ci, q in enumerate(free)}
        for row, c in zip(rows, pivots):
            columns[c] = f.scale(-1, [row[q] for q in free])
        # row (c, g), column i holds c . [e_g, e_i]; only nonzero brackets contribute
        system = defaultdict(list(self._zeros).copy)
        for g in self._bracket_generators:
            for i, terms in self._adjacency[g]:
                (k, t), *rest = terms
                values = f.scale(t, columns[k])  # c . [e_g, e_i] for every constraint c at once
                for k, t in rest:
                    values = f.sub_multiple(values, -t, columns[k])
                for ci, value in enumerate(values):
                    if value:
                        system[ci, g][i] = value
        if not system:
            return self.full_space()
        return kernel(Matrix(f, tuple(map(tuple, system.values()))))

    def _lower_step(self, term: Subspace) -> Subspace:
        """[term, X], which is [term, L] for an ideal term."""
        bracket, gens = self._bracket_with_basis, self._bracket_generators
        return _span(self.field, self.dim, [bracket(v, g) for v in term.basis.rows for g in gens])

    @cached_property
    def _lower_series(self) -> tuple:
        series = [self.full_space()]
        nxt = self._derived
        while nxt != series[-1]:
            series.append(nxt)
            if nxt.is_zero:
                break
            nxt = self._lower_step(nxt)
        return tuple(series)

    @cached_property
    def _upper_series(self) -> tuple:
        series = [self.zero_space()]
        while not series[-1].contains_subspace(self._derived):  # else Z_{k+1} = L
            nxt = self._center_preimage(series[-1])
            if nxt == series[-1]:
                return tuple(series)
            series.append(nxt)
        return (*series, self.full_space())

    def lower_central_series(self) -> list:
        """[L, L', L^2, ...] down to the first repeated term."""
        return list(self._lower_series)

    def upper_central_series(self) -> list:
        """[0, Z(L), Z_2(L), ...] up to the first repeated term."""
        return list(self._upper_series)

    @property
    def is_nilpotent(self) -> bool:
        return self._lower_series[-1].is_zero

    @property
    def is_abelian(self) -> bool:
        return not self.sc

    def nilpotency_class(self) -> int:
        """Least c with L^c = 0 under the convention L^1 = [L, L]."""
        series = self._lower_series
        if not series[-1].is_zero:
            raise NonNilpotentError("lower central series does not reach 0")
        return len(series) - 1

    def coclass(self) -> int:
        return self.dim - self.nilpotency_class()

    # -- subalgebras ---------------------------------------------------------

    def subalgebra_class(self, s: Subspace) -> int:
        """Nilpotency class of the subalgebra s, from s, [s, s], [s, [s, s]], ... in L."""
        if s.is_full():
            return self.nilpotency_class()
        term, steps = s, 0
        while not term.is_zero:
            nxt = self.bracket_subspaces(s, term)
            if steps == 0 and not s.contains_subspace(nxt):
                raise NotSubalgebraError("[s, s] leaves the subspace")
            if nxt == term:
                raise NonNilpotentError("lower central series of the subalgebra does not reach 0")
            term, steps = nxt, steps + 1
        return steps

    # -- generator presentation ----------------------------------------------

    def generator_indices(self) -> list:
        """Lexicographically first basis indices independent modulo L' (cached)."""
        return list(self._generator_indices)

    @cached_property
    def _generator_indices(self) -> tuple:
        """The indices of ``generator_indices``.

        They are the pivot columns of the reduced annihilator
        Λ = ``derived().annihilator``, whose kernel is L'.  Column i of Λ
        is Λ e_i, and it is a combination of the columns before it exactly
        when e_i lies in L' + span(e_0, ..., e_{i-1}); so the pivots are
        the greedy picks, and their basis vectors lift a basis of L/L'.
        Λ is the identity on these columns and kills L', so its rows are
        the L/L' coordinates with respect to the generators.
        """
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.derived().annihilator.rows)

    @cached_property
    def _generator_closure(self) -> tuple:
        """(generators, steps, values): the ad(X)-closure of span(X), X = ``generator_indices``.

        The values start as the generators g_0, ..., g_{r-1}, the basis
        vectors of ``generator_indices``.  One forward pass over the
        growing value list tries [g_t, values[s]] for each s in turn and
        each t, and appends it as the step (t, s) when it leaves the span
        of the values so far.  The pass ends when the values span L or when
        it runs out of values; then they span the subalgebra X generates.
        The span is kept in echelon form: one (pivot, row) per value, each
        row zero at the earlier pivots and 1 at its own, so reducing w by
        the rows in turn leaves 0 exactly when w lies in the span.
        """
        f = self.field
        n = self.dim
        generators = self._generator_indices
        values = [basis_vec(f, n, g) for g in generators]
        echelon = list(zip(generators, values))
        steps = []
        s = 0
        while s < len(values) < n:
            for t in range(len(generators)):
                w = residual = self._bracket(values[t], values[s])
                for c, row in echelon:
                    if residual[c]:
                        residual = f.sub_multiple(residual, residual[c], row)
                c = next((c for c, x in enumerate(residual) if x), None)
                if c is not None:
                    steps.append((t, s))
                    values.append(w)
                    echelon.append((c, f.scale(f.inv(residual[c]), residual)))
            s += 1
        return generators, tuple(steps), tuple(values)

    @cached_property
    def _bracket_generators(self) -> tuple:
        """X for both series: ``generator_indices`` when they generate L, else every index."""
        generators, _, values = self._generator_closure
        return generators if len(values) == self.dim else tuple(range(self.dim))

    def generator_presentation(self) -> "GeneratorPresentation":
        """Express a basis of L as bracket words in lifts of a basis of L/L'.

        The generators, steps (t, s) and values are those of the
        ad(X)-closure that the series read, and they span L since L is
        nilpotent.  ``basis_inverse`` inverts the matrix whose columns are
        the values, so a map with those value images is
        (images as columns) @ basis_inverse.
        """
        if not self.is_nilpotent:
            raise NonNilpotentError("presentations require a nilpotent algebra")
        generators, steps, values = self._generator_closure
        if len(values) != self.dim:
            raise AssertionError("generator extension stalled before spanning L")
        return GeneratorPresentation(generators, steps, invert(Matrix(self.field, tuple(zip(*values)))))


@dataclass(frozen=True)
class GeneratorPresentation:
    """Generators, bracket steps (t, s): the next value is [g_t, values[s]], and the
    inverse of the matrix whose columns are the values (generators first)."""

    generators: tuple
    steps: tuple
    basis_inverse: Matrix
