"""Exact computation with pseudo MV-algebras and their unit intervals.

The package covers element square roots and total square root mappings,
ideal-theoretic structure (prime partition, Boolean subdirect
irreducibility, splitting elements), and the strict and general
square-root closures, over finite table-backed algebras and a catalog
of unital lattice-ordered groups (scaled integer and dyadic chains,
rationals, quadratic lattices, lexicographic and twisted products, and
direct products), all in exact arithmetic.

The modules are the import surface (``from pmvroots import dsl, roots``);
the package root re-exports nothing.
"""
