"""Brute-force reference implementations for the test suite.

Everything here works on the full product space with dense Kronecker
products: no sector logic, no sparse matrices, no code shared with the
package. Sites enter the Kronecker product left to right, so site 0 is the
slowest index, and the local basis is ordered by descending Sz (index 0 is
the highest local Sz). Agreement with the package is therefore an
independent cross-check, not a tautology.

The ``*_reference`` functions are different: each is an earlier, slower
package routine kept verbatim, which its replacement must match bit for
bit. So is reflection_block_ground, which takes the package's assembly of
the blocks such a reference builds, so that a scan's representative can be
held to it bit for bit.
"""

import itertools

import numpy as np

SPIN_OF_FAMILY = {"xxz_half": 0.5, "xxz_one": 1.0, "blbq": 1.0}
SPIN_TAG = {"xxz_half": "half", "xxz_one": "one", "blbq": "one"}


def spin_ops(s):
    """(sz, s_plus, s_minus) for one site, basis ordered by descending Sz."""
    dim = int(round(2 * s)) + 1
    m = s - np.arange(dim)
    sz = np.diag(m)
    sp = np.zeros((dim, dim))
    # S+ |m> = sqrt(s(s+1) - m(m+1)) |m+1>, and |m+1> sits one index lower
    sp[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(
        s * (s + 1) - m[1:] * (m[1:] + 1)
    )
    return sz, sp, sp.T.copy()


def site_operator(op, site, num_sites):
    dim = op.shape[0]
    total = np.eye(1)
    for k in range(num_sites):
        total = np.kron(total, op if k == site else np.eye(dim))
    return total


def full_hamiltonian(family, num_sites, bonds, delta=0.0, beta=0.0, theta=0.0):
    """Dense Hamiltonian on the complete product space."""
    s = SPIN_OF_FAMILY[family]
    sz, sp, sm = spin_ops(s)
    dim_total = (sz.shape[0]) ** num_sites
    total = np.zeros((dim_total, dim_total))
    for i, j in bonds:
        szi = site_operator(sz, i, num_sites)
        szj = site_operator(sz, j, num_sites)
        spi = site_operator(sp, i, num_sites)
        smi = site_operator(sm, i, num_sites)
        spj = site_operator(sp, j, num_sites)
        smj = site_operator(sm, j, num_sites)
        transverse = 0.5 * (spi @ smj + smi @ spj)
        zz = szi @ szj
        exchange = transverse + zz
        if family == "xxz_half":
            total += transverse + delta * zz
        elif family == "xxz_one":
            total += transverse + delta * zz - beta * (exchange @ exchange)
        elif family == "blbq":
            total += np.cos(theta) * exchange + np.sin(theta) * (exchange @ exchange)
        else:
            raise ValueError(family)
    return total


def ground_full(matrix):
    """(energy, vector) of the lowest eigenpair of a dense matrix."""
    vals, vecs = np.linalg.eigh(matrix)
    return float(vals[0]), vecs[:, 0]


def pair_rdm_full(state, num_sites, local_dim, i, j):
    """Two-site reduced density matrix by direct partial trace.

    Row index is a_i * local_dim + a_j in the same descending-Sz order the
    full-space vector uses.
    """
    tensor = np.asarray(state).reshape((local_dim,) * num_sites)
    moved = np.moveaxis(tensor, (i, j), (0, 1))
    flat = moved.reshape(local_dim * local_dim, -1)
    return flat @ flat.T


def total_sz_full(num_sites, s):
    """Diagonal of the total-Sz operator on the full product space."""
    sz, _, _ = spin_ops(s)
    diag = np.zeros((sz.shape[0]) ** num_sites)
    for site in range(num_sites):
        diag += np.diag(site_operator(sz, site, num_sites))
    return diag


def embed_indices(digit_rows, local_dim):
    """Full-space index of each packed-sector state.

    ``digit_rows[site]`` holds the ascending-Sz digit of that site for every
    sector state; the full space counts descending Sz with site 0 slowest.
    """
    num_sites = len(digit_rows)
    indices = np.zeros_like(digit_rows[0])
    for site in range(num_sites):
        indices = indices * local_dim + (local_dim - 1 - digit_rows[site])
    return indices


def momentum_characters(lattice, signs):
    """One character per translation of ``lattice.translations()``, read off
    where it takes site 0: ``signs[0]`` to the number of columns it moves,
    times ``signs[-1]`` to the number of rows (a ring has one row, so one
    sign)."""
    width = lattice.extent[0]
    return tuple(
        signs[0] ** (image[0] % width) * signs[-1] ** (image[0] // width)
        for image in lattice.translations()
    )


def momentum_sets(lattice):
    """The signs for ``momentum_characters`` of every momentum 0 or pi along
    each extent, pi only along an even one: along an odd extent it is no
    character of the translations."""
    for signs in itertools.product((1, -1), repeat=len(lattice.extent)):
        if all(sign == 1 or extent % 2 == 0 for sign, extent in zip(signs, lattice.extent)):
            yield signs


def assemble_parts_reference(family, lattice, block):
    """The bond-by-bond, part-by-part sector assembly that preceded the
    shared per-bond pass, kept verbatim: each part scatters its own COO
    triplets and finds every moved state by binary search. The package's
    assemble_parts must reproduce its CSR arrays bit for bit."""
    from scipy import sparse

    from spinent.hamiltonian import _STENCIL_PRUNE, bond_stencils

    basis, reps = block.basis, block.reps
    d = basis.local_dim
    states = basis.states
    dim = block.dimension
    root_orbit = np.sqrt(block.orbit)
    out = {}
    for name, stencil in bond_stencils(family).items():
        entries = [
            (int(p_out), int(p_in), stencil[p_out, p_in])
            for p_out, p_in in zip(*np.nonzero(np.abs(stencil) > _STENCIL_PRUNE))
        ]
        rows, cols, vals = [], [], []
        for i, j in lattice.bonds:
            pair = reps.site_digits(i) * d + reps.site_digits(j)
            for p_out, p_in, amp in entries:
                sel = np.nonzero(pair == p_in)[0]
                if sel.size == 0:
                    continue
                if p_out == p_in:
                    rows.append(sel)
                    cols.append(sel)
                    vals.append(np.full(sel.size, amp))
                    continue
                targets = reps.with_pair_digits(
                    reps.states[sel], i, j, p_out // d, p_out % d
                )
                found = np.searchsorted(states, targets)
                assert np.array_equal(states[found], targets)
                target_rows = block.row[found]
                weights = amp * block.coef[found] * root_orbit[sel]
                inside = target_rows >= 0
                if not inside.all():
                    target_rows, sel, weights = target_rows[inside], sel[inside], weights[inside]
                rows.append(target_rows)
                cols.append(sel)
                vals.append(weights)
        if rows:
            coo = sparse.coo_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(dim, dim),
            )
            mat = coo.tocsr()
        else:
            mat = sparse.csr_matrix((dim, dim))
        mat.sum_duplicates()
        mat.sort_indices()
        out[name] = mat
    return out


def bond_stencils_reference(family):
    """``hamiltonian.bond_stencils`` as it was, one branch per family name,
    before FAMILIES named each family's parts; the Sz check left out."""
    from spinent.hamiltonian import spin_matrices

    sz, sp, sm = spin_matrices(SPIN_TAG[family])
    xy = 0.5 * (np.kron(sp, sm) + np.kron(sm, sp))
    zz = np.kron(sz, sz)
    if family == "xxz_half":
        parts = {"xy": xy, "zz": zz}
    elif family == "xxz_one":
        parts = {"xy": xy, "zz": zz, "bq": (xy + zz) @ (xy + zz)}
    else:
        exchange = xy + zz
        parts = {"bl": exchange, "bq": exchange @ exchange}
    return parts


def stencil_diagonal_sum(family, lattice, basis):
    """Each part's diagonal over a plain sector: its stencil's diagonal entry
    of every state's pair digits, summed over ``lattice.bonds`` in bond
    order, and whether any bond gave the state an entry. Returns
    {name: (sums, has an entry)}; the package's plain assembly must give
    these sums bit for bit."""
    from spinent.hamiltonian import _STENCIL_PRUNE, bond_stencils

    d = basis.local_dim
    out = {}
    for name, stencil in bond_stencils(family).items():
        diagonal = np.diag(stencil)
        kept = np.abs(diagonal) > _STENCIL_PRUNE
        sums = np.zeros(basis.dimension)
        has = np.zeros(basis.dimension, dtype=bool)
        for i, j in lattice.bonds:
            pair = basis.site_digits(i) * d + basis.site_digits(j)
            sums += np.where(kept[pair], diagonal[pair], 0.0)
            has |= kept[pair]
        out[name] = (sums, has)
    return out


def diagonal_hop_terms(family, lattice, block):
    """Per part, the hop terms of the part-by-part assembly that land on a
    block state's own row, a hop taking its representative into its own
    orbit: their count and the sum of their magnitudes for every block
    state. Returns {name: (count, magnitude sum)}; both are zero throughout
    the plain block, where a hop always changes the state."""
    from spinent.hamiltonian import _STENCIL_PRUNE, bond_stencils

    basis, reps = block.basis, block.reps
    d = basis.local_dim
    root_orbit = np.sqrt(block.orbit)
    out = {}
    for name, stencil in bond_stencils(family).items():
        count = np.zeros(block.dimension, dtype=np.int64)
        size = np.zeros(block.dimension)
        for i, j in lattice.bonds:
            pair = reps.site_digits(i) * d + reps.site_digits(j)
            for p_out, p_in in zip(*np.nonzero(np.abs(stencil) > _STENCIL_PRUNE)):
                if p_out == p_in:
                    continue
                sel = np.nonzero(pair == p_in)[0]
                targets = reps.with_pair_digits(reps.states[sel], i, j, p_out // d, p_out % d)
                found = np.searchsorted(basis.states, targets)
                own = block.row[found] == sel
                sel, found = sel[own], found[own]
                count[sel] += 1
                size[sel] += np.abs(stencil[p_out, p_in] * block.coef[found] * root_orbit[sel])
        out[name] = (count, size)
    return out


def orbit_block_reference(basis, elements):
    """The state-by-state block builder that preceded building each orbit
    from its representative, kept verbatim: ``elements`` gives the image of
    every sector state and the character of each group element, identity
    first, and every state takes the smallest of its images as its
    representative. The package's translation and parity blocks must
    reproduce its arrays bit for bit."""
    from spinent.basis import SectorBlock, SpinBasis

    states = basis.states
    smallest = states.copy()
    sign = np.ones(states.size)
    fixed = np.zeros(states.size, dtype=np.int64)
    annihilated = np.zeros(states.size, dtype=bool)
    group = 0
    for image, character in elements:
        group += 1
        still = image == states
        fixed += still
        if character < 0:
            annihilated |= still
        lower = image < smallest
        smallest[lower] = image[lower]
        # The element that takes a state to its representative r gives the
        # state the amplitude character * amp(r) in the block.
        sign[lower] = character
    kept = ~annihilated
    is_rep = kept & (smallest == states)
    block_row = np.cumsum(is_rep) - 1
    row = np.where(kept, block_row[basis.index(smallest)], -1)
    orbit = group // fixed
    coef = np.where(kept, sign / np.sqrt(orbit), 0.0)
    reps = SpinBasis(basis.spin, basis.num_sites, basis.sz_sector, states[is_rep])
    return SectorBlock(basis, reps, row, coef, orbit[is_rep])


def parity_blocks_reference(basis, reflection, halves=()):
    """parity_blocks through the state-by-state builder, from images found
    one site at a time: every product of the reflection, at Sz = 0 the spin
    inversion, and the translations of ``halves``, and the blocks of every
    choice of their characters, in parity_blocks' order, empty ones left
    out."""
    n, b = basis.num_sites, basis.bits_per_site
    top = sum((basis.local_dim - 1) << (b * site) for site in range(n))
    generators = [(reflection, False)]
    if basis.sz_sector == 0:
        generators.append((tuple(range(n)), True))
    generators += [(half, False) for half in halves]
    blocks = []
    for signs in itertools.product((1, -1), repeat=len(generators)):
        elements = []
        for chosen in itertools.product((0, 1), repeat=len(generators)):
            image, flip, character = tuple(range(n)), False, 1
            for use, (other, inverts), sign in zip(chosen, generators, signs):
                if use:
                    image = tuple(other[site] for site in image)
                    flip, character = flip != inverts, character * sign
            moved = permuted_states(basis, image)
            elements.append((top - moved if flip else moved, character))
        block = orbit_block_reference(basis, elements)
        if block.dimension:
            blocks.append(block)
    return blocks


def reflection_block_ground(family, lattice, model, tol=1e-10, tol_deg=1e-8):
    """A scan's ground energy, Sz and representative by eigh of every block
    of the reflection and, at Sz = 0, the spin inversion (parity_blocks
    without half translations, built state by state). The representative
    sector is the largest Sz whose bottom lies within ``tol_deg`` of the
    lowest, and within it the first block whose bottom lies within ``tol``
    of the sector's. Returns (energy, sz, block dimension, vector over the
    plain sector)."""
    from spinent.basis import build_basis, nonnegative_sectors
    from spinent.hamiltonian import assemble_parts, combine_parts

    bottoms = {}
    for sz in nonnegative_sectors(SPIN_TAG[family], lattice.num_sites):
        basis = build_basis(lattice.num_sites, SPIN_TAG[family], sz)
        for block in parity_blocks_reference(basis, lattice.reflection()):
            parts = assemble_parts(family, lattice, block)
            dense = combine_parts(parts, model.part_coefficients()).toarray()
            vals, vecs = np.linalg.eigh(dense)
            bottoms.setdefault(sz, []).append((vals[0], block, vecs[:, 0]))
    lowest = {sz: min(entry[0] for entry in entries) for sz, entries in bottoms.items()}
    ground = min(lowest.values())
    sz = max(sz for sz, energy in lowest.items() if energy <= ground + tol_deg)
    energy, block, vector = next(
        entry for entry in bottoms[sz] if entry[0] <= lowest[sz] + tol
    )
    return energy, sz, block.dimension, block.expand(vector)


def permuted_states(basis, image):
    """Packed states with the digit of every site ``s`` moved to ``image[s]``,
    one site at a time."""
    b, mask = basis.bits_per_site, (1 << basis.bits_per_site) - 1
    moved = np.zeros_like(basis.states)
    for site, target in enumerate(image):
        moved |= ((basis.states >> (b * site)) & mask) << (b * target)
    return moved


def two_site_rdm_reference(state, basis, i, j):
    """The pair RDM as computed before its tables were kept per basis, kept
    verbatim: every call groups the whole sector by its rest configuration.
    The package's two_site_rdm must reproduce it bit for bit."""
    d = basis.local_dim
    digits_i = basis.site_digits(i)
    digits_j = basis.site_digits(j)
    pair = (d - 1 - digits_i) * d + (d - 1 - digits_j)
    rest = basis.with_pair_digits(basis.states, i, j, 0, 0)
    _, group = np.unique(rest, return_inverse=True)
    amp = np.zeros((group.max() + 1, d * d))
    amp[group, pair] = state
    return amp.T @ amp


def hopping_reference(state, basis, src, dst):
    """<S+_dst S-_src> as computed before its tables were kept per basis,
    kept verbatim but for its amplitudes, read here from the S+ matrix: every
    call looks up the row each movable state reaches and weighs it by the S+
    elements of its own two digits."""
    from spinent.hamiltonian import spin_matrices

    d = basis.local_dim
    _, sp, _ = spin_matrices(basis.spin)
    amps = np.array([sp[a + 1, a] for a in range(d - 1)])
    digits_src = basis.site_digits(src)
    digits_dst = basis.site_digits(dst)
    movable = (digits_src > 0) & (digits_dst < d - 1)
    if not movable.any():
        return 0.0
    targets = basis.with_pair_digits(
        basis.states[movable], src, dst, digits_src[movable] - 1, digits_dst[movable] + 1
    )
    loc = basis.index(targets)
    weight = amps[digits_src[movable] - 1] * amps[digits_dst[movable]]
    return float(np.sum(state[movable] * weight * state[loc]))
