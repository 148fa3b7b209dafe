"""Exact-arithmetic model of combined probabilistic and nondeterministic choice.

Monadic values are non-empty finitely-generated convex sets of
finitely-supported rational distributions, stored in extreme-point normal
form so every law of the combined theory can be checked by structural
equality.

Each name is imported from its own module, as in `convexchoice.gcm.bind_gcm`;
the package root holds only `__version__`.
"""

__version__ = "0.1.0"
