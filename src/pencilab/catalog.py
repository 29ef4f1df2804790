"""Built-in example pencils used in demos and tests."""

from __future__ import annotations

from .pencil import Pencil, Term


def e1_pencil() -> Pencil:
    """|xi|^2 (|xi|^2 + lambda^2) in two variables: m = 2, mu = 1."""
    return Pencil(n=2, m=2, mu=1, terms=(
        Term((4, 0), 4, 1.0), Term((2, 2), 4, 2.0), Term((0, 4), 4, 1.0),
        Term((2, 0), 2, 1.0), Term((0, 2), 2, 1.0),
    ))


def agmon_pencil() -> Pencil:
    """lambda^2 + |xi|^2 in two variables: the classical case m = 1, mu = 0."""
    return Pencil(n=2, m=1, mu=0, terms=(
        Term((2, 0), 2, 1.0), Term((0, 2), 2, 1.0), Term((0, 0), 0, 1.0),
    ))


def broken_pencil() -> Pencil:
    """|xi|^4 + lambda^2 xi_1^2: the lowest part xi_1^2 is not elliptic."""
    return Pencil(n=2, m=2, mu=1, terms=(
        Term((4, 0), 4, 1.0), Term((2, 2), 4, 2.0), Term((0, 4), 4, 1.0),
        Term((2, 0), 2, 1.0),
    ))
