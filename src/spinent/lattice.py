"""Periodic lattice geometries as explicit nearest-neighbour bond lists.

Every Hamiltonian in this package is a sum over bonds, so a lattice is
nothing more than a site count and a deduplicated list of site pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Lattice:
    """A finite periodic lattice described by its bond list.

    Bonds are stored once per pair as ``(i, j)`` with ``i < j``, so each
    exchange term enters an assembled Hamiltonian exactly once.
    """

    geometry: str
    num_sites: int
    bonds: tuple[tuple[int, int], ...]
    extent: tuple[int, ...]

    def sublattice(self) -> tuple[int, ...] | None:
        """Two-colouring of the sites by coordinate parity, or None.

        A site's colour is the parity of its row plus its column (of its
        index on a ring). None means some bond joins two sites of one
        colour: an odd ring or an odd extent is not bipartite.
        """
        width = self.extent[0]
        colour = tuple((site % width + site // width) % 2 for site in range(self.num_sites))
        if any(colour[i] == colour[j] for i, j in self.bonds):
            return None
        return colour

    def translations(self) -> tuple[tuple[int, ...], ...]:
        """Image of every site under each translation, identity first: the
        move by ``down`` rows and ``right`` columns for every ``(down, right)``
        in row-major order, a ring being a torus of one row. Built once per
        shape."""
        return _translations(self.num_sites, self.extent[0])

    def half_translations(self) -> tuple[tuple[int, ...], ...]:
        """The translations by half of an even extent, of the width first
        and then of the height; none along an odd extent. Each is its own
        inverse and commutes with the reflection."""
        width = self.extent[0]
        rows = self.num_sites // width
        halves = ((width // 2, width), (rows // 2 * width, rows))
        return tuple(self.translations()[k] for k, extent in halves if extent % 2 == 0)

    def reflection(self) -> tuple[int, ...]:
        """Image of every site under the mirror that maps the bonds onto
        themselves: i -> -i mod N on a ring, and (row, col) -> (row, -col
        mod width) on the periodic square."""
        width = self.extent[0]
        return tuple(
            site - site % width + (-site) % width for site in range(self.num_sites)
        )


@lru_cache(maxsize=None)
def _translations(num_sites: int, width: int) -> tuple[tuple[int, ...], ...]:
    rows = num_sites // width
    return tuple(
        tuple((s // width + down) % rows * width + (s + right) % width
              for s in range(num_sites))
        for down in range(rows) for right in range(width)
    )


def chain_lattice(num_sites: int) -> Lattice:
    """Periodic chain (ring) of ``num_sites`` sites.

    A ring of N >= 3 sites has N bonds. The two-site ring keeps a single
    bond: the pair (0, 1) is counted once, which makes the two-spin
    Heisenberg singlet energy the textbook -3/4.
    """
    if num_sites < 2:
        raise ValueError(f"chain needs at least 2 sites, got {num_sites}")
    pairs = {tuple(sorted((i, (i + 1) % num_sites))) for i in range(num_sites)}
    bonds = tuple(sorted(pairs))
    return Lattice("chain", num_sites, bonds, (num_sites,))


def square_lattice(width: int, height: int) -> Lattice:
    """Periodic square lattice of ``width`` x ``height`` sites.

    Site (row, col) is index ``row * width + col``. Each site bonds to its
    right and lower neighbour with wraparound, giving 2*width*height bonds.
    Extents below 3 would duplicate bonds under periodicity and are
    rejected.
    """
    if width < 3 or height < 3:
        raise ValueError(
            f"square lattice needs extents >= 3, got {width}x{height}"
        )
    bonds = []
    for row in range(height):
        for col in range(width):
            site = row * width + col
            right = row * width + (col + 1) % width
            down = ((row + 1) % height) * width + col
            bonds.append(tuple(sorted((site, right))))
            bonds.append(tuple(sorted((site, down))))
    return Lattice("square", width * height, tuple(sorted(set(bonds))), (width, height))
