"""The one process-wide store of facts derived from maps.

Every key is map data only, never a cap or a ``RunConfig``.  A run's caps
decide only whether it may use an entry: ``maps._compose_raw`` refuses a
composite by its degree bound before it looks it up, and ``base_points``
refuses a stored tower higher than its height cap, as a fresh process would.
Curves, their images and strict transforms need no cap; the chain walks
that read them are not stored, so each walk asks for its iterates under
its own degree cap.  The tables: ``composites``, ``components`` (the
curves a map contracts), ``images``, ``pullbacks``, ``towers``,
``jacobians`` (the factors of a map's Jacobian, factored once for
``exc_components`` and for ``forms``) and ``forms`` (a map as c * M after
l, which ``maps._composite`` reads for its inner map).

Kept elsewhere: ``maps._builtin`` and ``poly._symbols`` intern objects
(``builtin(name) is builtin(name)`` is a contract that clearing would
break), and ``ProjMap._inverse`` and ``CubeComplex._hyperplanes`` belong to
their object.
"""

composites: dict = {}  # (f.key(), g.key()) -> f after g
components: dict = {}  # f.key() -> the curves f contracts
images: dict = {}  # (f.key(), C) -> the point f contracts C to, or None
pullbacks: dict = {}  # (f.key(), C) -> the strict transform of C, or None
towers: dict = {}  # (f^n.key(), proper base points) -> the base-point tree
jacobians: dict = {}  # f.key() -> the factors of J(f), or None when J = 0
forms: dict = {}  # f.key() -> f as c * M after l, or None

_TABLES = {"composites": composites, "components": components,
           "images": images, "pullbacks": pullbacks, "towers": towers,
           "jacobians": jacobians, "forms": forms}


def clear() -> None:
    for table in _TABLES.values():
        table.clear()


def sizes() -> dict[str, int]:
    """The number of entries of each table, by name."""
    return {name: len(table) for name, table in _TABLES.items()}
