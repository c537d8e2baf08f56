"""Sato-Tate groups for genus 1 and 2: exact Haar moments and samplers.

Each group is declared once, as data: `laws` names the Haar law of each
torus factor of the identity component ("u1", "su2", or the rank-2 "usp4")
acting on an eigenvalue pattern of Laurent monomials, and `coset_a1` gives
the a1 value of the single class forming each other component; Haar
measure weighs all components equally.  Each law is a table of roots, and
Weyl's formula makes the density the product of (1 - z^alpha) over them,
divided by its constant term (the Weyl group order).  The Haar expectation
of a1^d1 * a2^d2 averages, over components, a1^d1 on each coset and, on
the torus, the constant term of e1^d1 * e2^d2 * density, exactly: the
integer integrand pairs each density term c*z^e with its own coefficient
at z^-e, so the product is never formed.

Conventions: a1 and a2 are the first and second elementary symmetric
functions of the normalized Frobenius eigenvalues.  Every implemented group
contains -1, so a1 and -a1 are equidistributed and the sign convention
(trace versus linear L-coefficient) never changes a tracked statistic.

The genus-2 catalog also carries the component-group metadata for the full
classification: 52 finite-extension rows across the six connected parts,
34 of them realizable over Q.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import pi
from typing import Optional

import numpy as np

from .laurent import LaurentPoly

__all__ = [
    "STGroupEntry",
    "ComponentRow",
    "AxiomReport",
    "catalog",
    "get_entry",
    "exact_moment",
    "moment_orders",
    "sample_classes",
    "st_axiom_check",
]


@dataclass(frozen=True)
class ComponentRow:
    """One row of the genus-2 component-group table.

    label is the abstract component group (C1, C2, ..., S4xC2); name is the
    standard name of that particular extension of the identity component
    (several rows can share a label: distinct extensions); q_realizable
    marks whether this group occurs for an abelian surface over Q.
    """

    label: str
    name: str
    q_realizable: bool


# per torus law: (number of torus variables, roots of its Weyl density);
# usp4 carries the root system C2
_LAWS = {
    "u1": (1, ()),
    "su2": (1, ((2,), (-2,))),
    "usp4": (2, ((2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (-1, -1), (1, -1), (-1, 1))),
}


def _weyl_density(laws: tuple[str, ...], nvars: int) -> LaurentPoly:
    """Weyl's integration formula: the product of (1 - z^alpha) over the
    roots alpha of every law, each on its own torus variables, divided by
    its constant term (the order of the Weyl group: 1, 2 or 8 per law)."""
    one = LaurentPoly.constant(nvars, 1)
    prod, var = one, 0
    for law in laws:
        width, roots = _LAWS[law]
        for alpha in roots:
            exps = [0] * nvars
            exps[var : var + width] = alpha
            prod = prod * (one - LaurentPoly.monomial(exps))
        var += width
    return prod * LaurentPoly.constant(nvars, Fraction(1, prod.constant_term()))


@dataclass(frozen=True)
class STGroupEntry:
    """One Sato-Tate group: identity component and components, as data.

    laws: the Haar law of each torus factor of the identity component, in
    the variable order of eigenvalue_pattern.  coset_a1: the exact a1 of
    the single class forming each non-identity component (genus 1 only,
    where a1 fixes the class).  weyl_density is built from laws unless
    given, so a test can substitute a broken one.
    """

    id: str
    genus: int
    eigenvalue_pattern: tuple[tuple[int, ...], ...]
    laws: tuple[str, ...]
    end_algebra: str = ""  # End(A) tensor R for the generic member, genus 2
    component_rows: tuple[ComponentRow, ...] = ()
    coset_a1: tuple[int, ...] = ()
    weyl_density: Optional[LaurentPoly] = None

    def __post_init__(self):
        if sum(_LAWS[law][0] for law in self.laws) != self.torus_rank:
            raise ValueError(f"{self.id}: laws {self.laws} do not cover the torus")
        if self.coset_a1 and self.genus != 1:
            raise ValueError(f"{self.id}: coset classes are declared by a1 in genus 1 only")
        if self.weyl_density is None:
            object.__setattr__(
                self, "weyl_density", _weyl_density(self.laws, self.torus_rank)
            )

    @property
    def torus_rank(self) -> int:
        return len(self.eigenvalue_pattern[0])

    @property
    def n_components(self) -> int:
        return 1 + len(self.coset_a1)

    @property
    def point_masses(self) -> tuple[tuple[str, Fraction, Fraction], ...]:
        """(statistic, value, mass) for each a1 value a coset class takes."""
        return tuple(
            ("a1", Fraction(a), Fraction(k, self.n_components))
            for a, k in Counter(self.coset_a1).items()
        )

    def point_mass(self, statistic: str, value) -> Fraction:
        v = Fraction(value)
        for stat, val, mass in self.point_masses:
            if stat == statistic and val == v:
                return mass
        return Fraction(0)


_PAIR_1 = ((1,), (-1,))
_DIAG_2 = ((1,), (1,), (-1,), (-1,))
_SPLIT_2 = ((1, 0), (-1, 0), (0, 1), (0, -1))

# the 52 component-group rows, in table order per connected part; the name
# column identifies the extension (standard classification names) and the
# flag marks realizability over Q (34 rows in total are marked)
_U1_2_ROWS = (
    ("C1", "C_1", False),
    ("C2", "C_2", False),
    ("C2", "J(C_1)", True),
    ("C2", "C_{2,1}", False),
    ("C3", "C_3", False),
    ("C4", "C_4", False),
    ("C4", "C_{4,1}", False),
    ("C6", "C_6", False),
    ("C6", "J(C_3)", True),
    ("C6", "C_{6,1}", False),
    ("D2", "D_2", False),
    ("D2", "J(C_2)", True),
    ("D2", "D_{2,1}", True),
    ("D3", "D_3", False),
    ("D3", "D_{3,2}", True),
    ("D4", "D_4", False),
    ("D4", "D_{4,1}", True),
    ("D4", "D_{4,2}", True),
    ("D6", "D_6", False),
    ("D6", "J(D_3)", True),
    ("D6", "D_{6,1}", True),
    ("D6", "D_{6,2}", True),
    ("A4", "T", False),
    ("S4", "O", False),
    ("S4", "O_1", False),
    ("C4xC2", "J(C_4)", True),
    ("C6xC2", "J(C_6)", True),
    ("D2xC2", "J(D_2)", True),
    ("D4xC2", "J(D_4)", True),
    ("D6xC2", "J(D_6)", True),
    ("A4xC2", "J(T)", True),
    ("S4xC2", "J(O)", True),
)
_SU2_2_ROWS = (
    ("C1", "E_1", True),
    ("C2", "E_2", True),
    ("C2", "J(E_1)", True),
    ("C3", "E_3", True),
    ("C4", "E_4", True),
    ("C6", "E_6", True),
    ("D2", "J(E_2)", True),
    ("D3", "J(E_3)", True),
    ("D4", "J(E_4)", True),
    ("D6", "J(E_6)", True),
)
_U1XU1_ROWS = (
    ("C1", "F", False),
    ("C2", "F_a", False),
    ("C2", "F_ab", True),
    ("C4", "F_ac", True),
    ("D2", "F_{a,b}", True),
)
_U1XSU2_ROWS = (
    ("C1", "G_{1,3}", False),
    ("C2", "N(G_{1,3})", True),
)
_SU2XSU2_ROWS = (
    ("C1", "G_{3,3}", True),
    ("C2", "N(G_{3,3})", True),
)
_USP4_ROWS = (("C1", "USp(4)", True),)


def _rows(raw) -> tuple[ComponentRow, ...]:
    return tuple(ComponentRow(*r) for r in raw)


@lru_cache(maxsize=1)
def catalog() -> tuple[STGroupEntry, ...]:
    """All implemented group entries, genus 1 first, in fixed order."""
    return (
        STGroupEntry("U(1)", 1, _PAIR_1, ("u1",),
                     component_rows=_rows((("C1", "U(1)", True),))),
        STGroupEntry("SU(2)", 1, _PAIR_1, ("su2",),
                     component_rows=_rows((("C1", "SU(2)", True),))),
        # the reflection component is the single class with eigenvalues +-i
        STGroupEntry("N(U(1))", 1, _PAIR_1, ("u1",),
                     component_rows=_rows((("C2", "N(U(1))", True),)), coset_a1=(0,)),
        STGroupEntry("U(1)_2", 2, _DIAG_2, ("u1",), "M2(C)", _rows(_U1_2_ROWS)),
        STGroupEntry("SU(2)_2", 2, _DIAG_2, ("su2",), "M2(R)", _rows(_SU2_2_ROWS)),
        STGroupEntry("U(1)xU(1)", 2, _SPLIT_2, ("u1", "u1"), "CxC", _rows(_U1XU1_ROWS)),
        STGroupEntry("U(1)xSU(2)", 2, _SPLIT_2, ("u1", "su2"), "RxC", _rows(_U1XSU2_ROWS)),
        STGroupEntry("SU(2)xSU(2)", 2, _SPLIT_2, ("su2", "su2"), "RxR",
                     _rows(_SU2XSU2_ROWS)),
        STGroupEntry("USp(4)", 2, _SPLIT_2, ("usp4",), "R", _rows(_USP4_ROWS)),
    )


def get_entry(group_id: str) -> STGroupEntry:
    for e in catalog():
        if e.id == group_id:
            return e
    raise KeyError(f"unknown group id {group_id!r}")


def _elementary(pattern, nvars: int, k: int) -> LaurentPoly:
    total = LaurentPoly.zero(nvars)
    for subset in combinations(pattern, k):
        exps = tuple(sum(col) for col in zip(*subset)) if subset else (0,) * nvars
        total = total + LaurentPoly.monomial(exps)
    return total


def moment_orders(genus: int, dmax: int) -> list[tuple[int, int]]:
    """(d1, d2) pairs with weight d1 + 2*d2 <= dmax, excluding (0, 0), in
    ascending (d1, d2) order; d2 is always 0 in genus 1."""
    out = []
    for d1 in range(dmax + 1):
        top = 0 if genus == 1 else (dmax - d1) // 2
        for d2 in range(top + 1):
            if d1 or d2:
                out.append((d1, d2))
    return out


def _entry_moment(entry: STGroupEntry, d1: int, d2: int) -> Fraction:
    if d1 < 0 or d2 < 0:
        raise ValueError("moment orders must be nonnegative")
    if entry.genus == 1 and d2 != 0:
        raise ValueError(f"{entry.id} is genus 1; a2 moments undefined")
    rank = entry.torus_rank
    integrand = _elementary(entry.eigenvalue_pattern, rank, 1) ** d1
    if d2:
        integrand = integrand * _elementary(entry.eigenvalue_pattern, rank, 2) ** d2
    # CT(integrand * density) pairs each density term c*z^e with z^-e
    coeffs = integrand.terms
    torus = sum(c * coeffs.get(tuple(-x for x in e), 0)
                for e, c in entry.weyl_density.terms.items())
    cosets = sum(a**d1 for a in entry.coset_a1)
    return Fraction(torus + cosets, entry.n_components)


@lru_cache(maxsize=4096)
def exact_moment(group_id: str, d1: int, d2: int = 0) -> Fraction:
    """Haar expectation of a1^d1 * a2^d2, exact.

    Averages over components: the identity component integrates against
    the torus, each coset contributes its class's a1^d1.
    """
    return _entry_moment(get_entry(group_id), d1, d2)


# ---------------------------------------------------------------------------
# samplers: rejection against a uniform envelope on the eigenangle box,
# with the density evaluated trigonometrically

_TWO_PI = 2 * pi


def _fold(u: np.ndarray) -> np.ndarray:
    # uniform on [0, 2pi) to the class angle in [0, pi]
    return np.minimum(u, _TWO_PI - u)


def _draw_u1(rng: np.random.Generator, n: int) -> np.ndarray:
    return _fold(rng.uniform(0.0, _TWO_PI, n))


def _reject(rng: np.random.Generator, n: int, dim: int, per_row: int,
            density, sup: float) -> np.ndarray:
    """n rows of dim angles drawn from density on [0, pi]^dim by rejection
    against the uniform envelope sup, proposing per_row points per missing
    row (at least 64 * dim) in each round."""
    out = np.empty((n, dim))
    have = 0
    while have < n:
        m = max(per_row * (n - have), 64 * dim)
        t = [rng.uniform(0.0, pi, m) for _ in range(dim)]
        u = rng.uniform(0.0, 1.0, m)
        keep = density(*t) > u * sup
        acc = np.column_stack([x[keep] for x in t])
        take = min(len(acc), n - have)
        out[have : have + take] = acc[:take]
        have += take
    return out


def _draw_su2(rng: np.random.Generator, n: int) -> np.ndarray:
    """Density (2/pi) sin^2(theta) on [0, pi]; envelope accept prob sin^2."""
    return _reject(rng, n, 1, 2, lambda t: np.sin(t) ** 2, 1.0)


def _draw_usp4(rng: np.random.Generator, n: int) -> np.ndarray:
    """Joint density (8/pi^2) sin^2 t1 sin^2 t2 (cos t1 - cos t2)^2 on
    [0, pi]^2; uniform proposals, exact sup 16/27 as the envelope."""
    out = _reject(
        rng, n, 2, 6,
        lambda t1, t2: (np.sin(t1) * np.sin(t2) * (np.cos(t1) - np.cos(t2))) ** 2,
        16.0 / 27.0,
    )
    out.sort(axis=1)  # canonical order inside each conjugacy class
    return out


_SAMPLERS = {"u1": _draw_u1, "su2": _draw_su2, "usp4": _draw_usp4}


def _draw_torus(entry: STGroupEntry, rng: np.random.Generator, n: int) -> np.ndarray:
    angles = np.column_stack([_SAMPLERS[law](rng, n) for law in entry.laws])
    return np.repeat(angles, entry.genus // entry.torus_rank, axis=1)


def sample_classes(group_id: str, n: int, seed: int) -> np.ndarray:
    """n conjugacy classes as eigenangle rows, deterministic in seed.

    Shape (n, genus).  Rank-1 genus-2 groups return duplicated columns
    because their eigenvalues come in the doubled pattern (u, u, 1/u, 1/u).
    A disconnected group first draws each row's component uniformly; coset
    rows sit at the angle arccos(a1/2) of their class.
    """
    entry = get_entry(group_id)
    rng = np.random.default_rng(seed)
    if not entry.coset_a1:
        return _draw_torus(entry, rng, n)
    component = rng.integers(0, entry.n_components, n)
    out = np.empty((n, entry.genus))
    torus = component == 0
    out[torus] = _draw_torus(entry, rng, int(torus.sum()))
    for j, a in enumerate(entry.coset_a1, start=1):
        out[component == j] = np.arccos(a / 2)
    return out


# ---------------------------------------------------------------------------
# axiom checks

@dataclass(frozen=True)
class AxiomReport:
    group_id: str
    ok: bool
    failures: tuple[str, ...]
    unverified: tuple[str, ...]


def st_axiom_check(entry: STGroupEntry, max_weight: int = 12) -> AxiomReport:
    """Verify the checkable Sato-Tate axioms on a catalog entry.

    ST1 (structural): the eigenvalue pattern is closed under inversion and
    the density is a genuine probability (constant term 1, symmetric), so
    the entry describes a closed subgroup of the right unitary symplectic
    group.  ST2: some one-parameter torus substitution realizes the doubled
    eigenvalue pattern (u, u, 1/u, 1/u) (or (u, 1/u) in genus 1); whether
    it avoids factoring through a smaller pattern cannot be decided from
    this metadata and is reported as unverified.  ST3: all moments of
    weight d1 + 2*d2 <= max_weight are nonnegative integers.
    """
    failures: list[str] = []
    pattern = entry.eigenvalue_pattern
    neg = sorted(tuple(-x for x in e) for e in pattern)
    if neg != sorted(pattern):
        failures.append("ST1: eigenvalue pattern not closed under inversion")
    dens_terms = entry.weyl_density.terms
    sym = {tuple(-x for x in e): c for e, c in dens_terms.items()}
    if sym != dens_terms:
        failures.append("ST1: density not symmetric under inversion")
    if entry.weyl_density.constant_term() != 1:
        failures.append("ST1: density constant term is not 1")

    want = sorted([1] * entry.genus + [-1] * entry.genus)
    box = product(range(-4, 5), repeat=entry.torus_rank)
    if not any(
        sorted(sum(ei * mi for ei, mi in zip(e, m)) for e in pattern) == want
        for m in box
    ):
        failures.append(
            f"ST2: no one-parameter substitution gives the pattern {want}"
        )

    for d1, d2 in [(0, 0)] + moment_orders(entry.genus, max_weight):
        m = _entry_moment(entry, d1, d2)
        if m.denominator != 1 or m < 0:
            failures.append(
                f"ST3: moment ({d1},{d2}) = {m} is not a nonnegative integer"
            )
    return AxiomReport(
        group_id=entry.id,
        ok=not failures,
        failures=tuple(failures),
        unverified=("ST2: non-factoring of the one-parameter subgroup",),
    )
