"""Sparse Laurent polynomials with exact coefficients.

Supports 1 or 2 variables, which is all the rank-<=2 torus integration in
this package needs.  Terms are a dict from exponent tuples (possibly
negative entries) to coefficients stored as given: integers stay int, so
products of integer polynomials run in int arithmetic, and a Fraction
appears only where one was passed in.  Zero coefficients are never stored.
Haar expectation of a class function on a torus is just the constant term,
so the only operations required are ring arithmetic and constant_term().
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


class LaurentPoly:
    """Immutable sparse Laurent polynomial in `nvars` variables."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Scalar] = ()):
        if nvars not in (1, 2):
            raise ValueError("only 1 or 2 variables supported")
        clean: dict[tuple[int, ...], Scalar] = {}
        for exps, c in dict(terms).items():
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong arity")
            if c:
                clean[tuple(exps)] = c
        self.nvars = nvars
        self._terms = clean

    # -- construction helpers
    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, exps: Iterable[int], c: Scalar = 1) -> "LaurentPoly":
        exps = tuple(exps)
        return cls(len(exps), {exps: c})

    # -- inspection
    @property
    def terms(self) -> dict[tuple[int, ...], Scalar]:
        return dict(self._terms)

    def constant_term(self) -> Scalar:
        return self._terms.get((0,) * self.nvars, 0)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations
    def _coerce(self, other: "LaurentPoly") -> "LaurentPoly":
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        return other

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._terms)
        for e, c in self._coerce(other)._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.nvars, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        other = self._coerce(other)
        return self + LaurentPoly(self.nvars, {e: -c for e, c in other._terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        other = self._coerce(other)
        out: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.nvars, out)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers not supported")
        result = LaurentPoly.constant(self.nvars, 1)
        acc = self
        while k:
            if k & 1:
                result = result * acc
            k >>= 1
            if k:
                acc = acc * acc
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms
