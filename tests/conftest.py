import pathlib

import pytest

from voracious import (
    CoxeterMatrix,
    CoxeterSystem,
    VoraciousLanguage,
    WallGeometry,
    load_group_file,
)

GROUPS_DIR = pathlib.Path(__file__).resolve().parent.parent / "groups"

# Groups with long pivots, built in the tests rather than shipped.
AFFINE_A3 = ((1, 3, 2, 3), (3, 1, 3, 2), (2, 3, 1, 3), (3, 2, 3, 1))
TRIANGLE_237 = ((1, 2, 3), (2, 1, 7), (3, 7, 1))


def fresh_geometry(generators, orders) -> WallGeometry:
    return WallGeometry(CoxeterSystem(CoxeterMatrix(tuple(generators), orders)))


def small_roots_bruteforce(geometry: WallGeometry, radius: int):
    """Small walls among all walls of the ball, tested by the shadow criterion.

    A wall W is small iff no wall disjoint from W separates the identity
    chamber from W.  Any such wall lies in Inv(D) for D the far incident
    chamber of W, so the search over Inv(D) is exhaustive.
    """
    walls = set()
    for g in geometry.system.ball(radius):
        walls |= geometry.inversion_walls(g)
    out = []
    for wall in sorted(walls, key=lambda w: w.key):
        inv = geometry.inversion_walls(geometry.incident_far_chamber(wall))
        if not any(
            other != wall and geometry.walls_disjoint(wall, other) for other in inv
        ):
            out.append(wall)
    return tuple(out)


def reference_find_separator(geometry: WallGeometry, g, wall, candidates):
    """Least candidate wall, by root key, that separates chamber g from wall.

    The key-sorted search the engine used before it reported existence only.
    Sides are read from the frozenset inversion sets and disjointness from
    2B directly, so no disjointness memo is consulted.
    """
    inv_g = geometry.inversion_walls(g)
    inv_near = geometry.inversion_walls(geometry.incident_chamber(wall))
    for sep in sorted(candidates, key=lambda w: w.key):
        if sep == wall:
            continue
        t = geometry.system.bilinear2(sep.root, wall.root)
        if -2 < t < 2:
            continue
        if (sep in inv_g) != (sep in inv_near):
            return sep
    return None


class Stack:
    """Shared per-group computation stack; caches carry across tests."""

    def __init__(self, name: str):
        self.name = name
        self.cox = load_group_file(str(GROUPS_DIR / f"{name}.json"))
        self.system = CoxeterSystem(self.cox)
        self.geometry = WallGeometry(self.system)
        self.language = VoraciousLanguage(self.geometry)

    def element(self, text: str):
        from voracious import word_from_string

        word = word_from_string(text, self.cox.generators)
        return self.system.intern(self.system.element_of_word(word))

    def word(self, text: str):
        from voracious import word_from_string

        return word_from_string(text, self.cox.generators)


_CACHE: dict[str, Stack] = {}


@pytest.fixture(scope="session")
def stack():
    def get(name: str) -> Stack:
        if name not in _CACHE:
            _CACHE[name] = Stack(name)
        return _CACHE[name]

    return get
