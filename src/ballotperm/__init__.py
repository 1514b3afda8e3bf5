"""Exact enumeration and generating-function certification for ballot
permutations, odd order permutations, and Eulerian numbers refined by the
first letter.

Three independent computation routes cross-check every counting sequence:
brute-force enumeration (`oracle`), recursions and partition sums (`counts`),
and coefficient extraction from closed-form multivariate series held as
exact integers (`counts.build_catalog` on top of `series`).  The `verify`
module certifies the identities tying the routes together, `permstat` holds
the statistics of a single word, and `cli` is the command line.

The API is the submodules: import the one you need (`from ballotperm import
counts`).  This package imports none of them, so a command loads only the
modules it runs.
"""

__version__ = "0.1.0"
