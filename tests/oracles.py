"""Brute-force reference implementations for the test suite.

Everything here works on the full product space with dense Kronecker
products: no sector logic, no sparse matrices, no code shared with the
package. Sites enter the Kronecker product left to right, so site 0 is the
slowest index, and the local basis is ordered by descending Sz (index 0 is
the highest local Sz). Agreement with the package is therefore an
independent cross-check, not a tautology.
"""

import numpy as np

SPIN_OF_FAMILY = {"xxz_half": 0.5, "xxz_one": 1.0, "blbq": 1.0}


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
