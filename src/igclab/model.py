"""Hamiltonian builders for lattices whose only non-Hermiticity is onsite loss.

Two model families are covered:

* the dissipative two-chain ladder (an A chain without loss, a B chain with a
  per-cell loss rate gamma_x, and A-B couplings of range n), built in real
  space under open or periodic boundaries (its spectrum and its walks taken
  in real arithmetic at cos(phi) = 0; a uniform ring's 2x2 Bloch matrices,
  all momenta at once, are read off the band by `LadderOperator.blocks`), and
* an arbitrary "dissipative graph" split into a lossless subsystem, a lossy
  subsystem, and the Hermitian coupling between them.

Conventions, fixed once and relied on by every downstream module:

* Unit cells are numbered x = 1..L.  Matrix rows interleave the sublattices,
  index(x, A) = 2(x-1) and index(x, B) = 2(x-1)+1, so the loss pattern on the
  diagonal reads {0, gamma_1, 0, gamma_2, ...}.
* The forward intra-chain hop x -> x+1 carries the phase factor e^{+i phi} on
  both chains, with an overall minus sign on chain B.  A plane wave on chain A
  with momentum k then has energy t_p cos(k - phi).  Only the chain-A/chain-B
  combination is gauge invariant; this particular split is a choice.
* A-B couplings: t_0 inside a cell plus t_m/2 between cells m apart (both
  directions), m = 1..n.
* In the Bloch matrix the A sublattice is the upper component and the B
  sublattice the lower one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import densela

OBC = "OBC"
PBC = "PBC"

_HERM_TOL = 1e-12


@dataclass(frozen=True)
class LadderParams:
    """Full parameterization of the dissipative ladder.

    Parameters
    ----------
    L : int
        Number of unit cells, at least 2.
    t : sequence of float
        A-B coupling amplitudes t_0..t_n.  The coupling range n = len(t)-1
        must satisfy n < L/2 so periodic wraps are unambiguous.
    t_p : float
        Intra-chain hopping amplitude (same magnitude on both chains).
    phi : float
        Peierls phase in radians attached to the intra-chain hops.
    gamma : float or sequence of float
        Loss rate of each cell's B site.  A scalar is broadcast to all cells.
    bc : str
        Boundary condition, "OBC" or "PBC".
    """

    L: int
    t: tuple
    t_p: float
    phi: float
    gamma: tuple
    bc: str = OBC

    def __post_init__(self):
        if not isinstance(self.L, (int, np.integer)) or self.L < 2:
            raise ValueError(f"L must be an integer >= 2, got {self.L}")
        t = tuple(float(v) for v in np.atleast_1d(self.t))
        if len(t) < 1 or not all(np.isfinite(t)):
            raise ValueError("t must be a non-empty list of finite reals")
        n = len(t) - 1
        if n >= self.L / 2:
            raise ValueError(f"coupling range n={n} must satisfy n < L/2 (L={self.L})")
        if not (np.isfinite(self.t_p) and np.isfinite(self.phi)):
            raise ValueError("t_p and phi must be finite")
        g = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if g.size == 1:
            g = np.full(self.L, g[0])
        if g.size != self.L:
            raise ValueError(f"gamma must have one entry per cell ({self.L}), got {g.size}")
        if not np.all(np.isfinite(g)) or np.any(g < 0):
            raise ValueError("loss rates gamma_x must be finite and >= 0")
        if self.bc not in (OBC, PBC):
            raise ValueError(f"bc must be '{OBC}' or '{PBC}', got {self.bc!r}")
        object.__setattr__(self, "L", int(self.L))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "t_p", float(self.t_p))
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "gamma", tuple(g))

    @property
    def n(self) -> int:
        """Coupling range (largest A-B hopping distance in cells)."""
        return len(self.t) - 1

    @property
    def dim(self) -> int:
        return 2 * self.L

    @property
    def uniform_gamma(self):
        """The common loss rate if the profile is uniform, else None."""
        g = np.asarray(self.gamma)
        if np.all(g == g[0]):
            return float(g[0])
        return None

    def replace(self, **kw) -> "LadderParams":
        # a uniform profile carries over as its scalar, so it survives a new L
        g = self.uniform_gamma
        d = dict(L=self.L, t=self.t, t_p=self.t_p, phi=self.phi,
                 gamma=self.gamma if g is None else g, bc=self.bc)
        d.update(kw)
        return LadderParams(**d)


def linear_gamma(L: int, slope: float, offset: float) -> np.ndarray:
    """Loss profile gamma_x = slope*x + offset for x = 1..L."""
    g = slope * np.arange(1, L + 1) + offset
    if np.any(g < 0):
        raise ValueError("linear profile produces negative loss rates")
    return g


def random_gamma(L: int, low: float = 0.4, high: float = 0.6, seed=None) -> np.ndarray:
    """Loss rates drawn uniformly from (low, high) with a seedable PCG64 stream."""
    if not 0 <= low < high:
        raise ValueError("need 0 <= low < high")
    return np.random.default_rng(seed).uniform(low, high, L)


def site_index(x: int, sub: str) -> int:
    """Row index of site (x, sub) in the interleaved ordering, x = 1-based."""
    if sub not in ("A", "B"):
        raise ValueError("sublattice must be 'A' or 'B'")
    return 2 * (x - 1) + (0 if sub == "A" else 1)


def check_x0(x0, L: int):
    """Refuse a release cell that is not an integer in 1..L: a float cannot
    index a state or a profile, and a bool is no cell."""
    if isinstance(x0, bool) or not isinstance(x0, (int, np.integer)) or not 1 <= x0 <= L:
        raise ValueError(f"x0 must be an integer cell in 1..{L}, got {x0!r}")


def band_order(p: LadderParams) -> np.ndarray:
    """Site permutation that keeps the ladder matrix narrowly banded.

    Under OBC the natural ordering already has half-bandwidth 2n+1 (2 for
    n = 0).  Under PBC the cells are folded, 0, L-1, 1, L-2, ..., so a hop
    of m cells, the wrap-around ones included, joins cells at most 2m places
    apart: the half-bandwidth is at most 4n+1 (4 for n = 0) instead of 2L-1.
    Entry k is the natural index of the site at position k.
    """
    if p.bc == OBC:
        return np.arange(p.dim)
    cells = np.empty(p.L, dtype=int)
    cells[0::2] = np.arange((p.L + 1) // 2)
    cells[1::2] = np.arange(p.L - 1, (p.L - 1) // 2, -1)
    return (2 * cells[:, None] + np.arange(2)).ravel()


@dataclass(frozen=True)
class LadderOperator:
    """An operator on the ladder's sites as `band` data, sites permuted by
    `order` (`band_order`), and whether the ladder is a periodic `ring` with
    uniform loss; its dense natural-order `matrix`, a ring's Bloch `blocks`
    and its `eigenvalues` are derived."""

    band: densela.Banded
    order: np.ndarray
    ring: bool

    def _dense(self, ab: np.ndarray) -> np.ndarray:
        # the read-only natural-order matrix of band data `ab` shaped as `band`
        b, o, n = self.band, self.order, self.order.size
        A = np.zeros((n, n), dtype=ab.dtype)
        for d in range(-b.kl, b.ku + 1):
            i = np.arange(max(-d, 0), n - max(d, 0))
            A[o[i], o[i + d]] = ab[b.ku - d, i + d]
        A.setflags(write=False)
        return A

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix in natural site order, read-only, rebuilt on each access."""
        return self._dense(self.band.ab)

    def gauge_form(self):
        """(c, R) with D^-1 M D = c R and R real band data shaped as `band.ab`, or None.

        The sublattice gauge D = diag(1 on A, i on B) makes G = D^-1 M D = c R,
        R real (c = i for H, 1 for X = i conj(H)) at cos(phi) = 0 or t_p = 0.
        The form is returned when the part of G / c that R leaves out is at
        most eps max|G| (1.5e-17 at phi = fl(pi/2): below the backward error of
        a complex eigensolve or matvec).  Read off the band, so `order % 2` is
        checked.
        """
        b, sub = self.band, self.order % 2
        # band entry (r, j) is M[i, j], i = j + r - ku (zero outside M); the
        # gauge scales it by i^d, d = sub_j - sub_i in {0, 1, -1}
        i = np.clip(np.arange(sub.size) + np.arange(-b.ku, b.kl + 1)[:, None], 0, sub.size - 1)
        g = b.ab * np.array([1.0, 1j, -1j])[sub - sub[i]]
        tol = np.finfo(float).eps * np.abs(g).max(initial=0.0)
        for c, kept, dropped in ((1.0, g.real, g.imag), (1j, g.imag, g.real)):
            if np.abs(dropped).max(initial=0.0) <= tol:
                return c, kept
        return None

    def blocks(self) -> np.ndarray:
        """The 2x2 Bloch matrices of a uniform-loss ring, read off its band.

        A uniform ring is invariant under a shift by one cell, so the two
        columns of cell 0's sites hold every hop: entry ((d, a), (0, s)) is
        h_as(d), the hop from sublattice s to sublattice a over d cells.
        Scattered by d and Fourier transformed over the cells,
        sum_d h(d) e^{-i k d}, they give block j = the Bloch matrix at
        k = 2 pi j / L, shape (L, 2, 2); the operator's spectrum is the union
        of the blocks' eigenvalues.
        """
        if not self.ring:
            raise ValueError("Bloch blocks need a periodic ring with uniform loss")
        b, order = self.band, self.order
        cols = np.argsort(order)[:2]                        # band columns of (0, A), (0, B)
        rows = cols + np.arange(-b.ku, b.kl + 1)[:, None]   # A[i, j] = ab[ku + i - j, j]
        inside = (rows >= 0) & (rows < order.size)
        site = order[rows[inside]]
        s = np.broadcast_to(np.arange(2), rows.shape)[inside]
        # one band entry per (d, a, s): hops that wrap onto one entry (L = 2)
        # were already summed when the band was assembled
        hops = np.zeros((order.size // 2, 2, 2), dtype=complex)
        hops[site // 2, site % 2, s] = b.ab[:, cols][inside]
        return np.fft.fft(hops, axis=0)

    def eigenvalues(self) -> tuple:
        """(eigenvalues of `matrix` sorted by (Re, Im), the eigensolve used).

        A ring's are its `blocks`' ("bloch_blocks").  Otherwise, with a
        `gauge_form` (c, R), eig(M) = c eig(R) by real LAPACK ("dense_real"),
        else zgeev of `matrix` ("dense").
        """
        if self.ring:
            w = densela.eigendecompose(self.blocks())
            return np.sort_complex(w.ravel()), "bloch_blocks"
        form = self.gauge_form()
        if form is None:
            return densela.eigendecompose(self.matrix), "dense"
        c, R = form
        w = c * densela.eigendecompose(self._dense(R))
        return w[np.lexsort((w.imag, w.real))], "dense_real"

    def loss_diagonal(self) -> np.ndarray:
        """Onsite loss rates of a Hamiltonian, natural order: -Im H_ii."""
        rates = np.empty(self.order.size)
        rates[self.order] = -np.imag(self.band.ab[self.band.ku])
        return rates


def build_ladder(p: LadderParams) -> LadderOperator:
    """Assemble the 2L x 2L ladder Hamiltonian as band data in `band_order(p)`.

    Each hop and its Hermitian partner are written for all cells at once;
    hops that would cross the boundary are present only under PBC, where they
    wrap modulo L.  The anti-Hermitian content is exactly the diagonal
    -i*gamma_x on the B sites.  The band is as narrow as the nonzero hops allow.
    Whether the ladder is a uniform-loss `ring` is decided here, once.
    """
    L, order = p.L, band_order(p)
    pos = np.argsort(order)
    a, b = pos[0::2], pos[1::2]          # band position of each cell's A, B site
    fwd = 0.5 * p.t_p * np.exp(1j * p.phi)
    # (m, sites of cell x+m, sites of cell x, amplitude) of each hop x -> x+m
    stencil = [(0, b, a, p.t[0]), (1, a, a, fwd), (1, b, b, -fwd)]
    stencil += [(s * m, b, a, 0.5 * p.t[m]) for m in range(1, p.n + 1) for s in (1, -1)]
    rows, cols, vals = [], [], []
    for m, to, frm, v in stencil:
        x = np.arange(L) if p.bc == PBC else np.arange(max(-m, 0), L - max(m, 0))
        y = (x + m) % L
        rows += [to[y], frm[x]]
        cols += [frm[x], to[y]]
        vals += [np.full(x.size, v, dtype=complex), np.full(x.size, np.conj(v), dtype=complex)]
    i, j = np.concatenate(rows), np.concatenate(cols)
    w = int(np.abs(i - j).max())
    ab = np.zeros((2 * w + 1, p.dim), dtype=complex)
    np.add.at(ab, (w + i - j, j), np.concatenate(vals))   # hops on one entry (L = 2) add up
    ab[w, b] = -1j * np.asarray(p.gamma)
    offsets = w - np.flatnonzero(ab.any(axis=1))   # of the nonzero diagonals
    ku, kl = int(offsets.max(initial=0)), int(-offsets.min(initial=0))
    return LadderOperator(densela.Banded(ab[w - ku:w + kl + 1], kl, ku), order,
                          p.bc == PBC and p.uniform_gamma is not None)


def h_x(t, k):
    """A-B coupling form factor sum_m t_m cos(m k)."""
    k = np.asarray(k, dtype=float)
    return sum(tm * np.cos(m * k) for m, tm in enumerate(t))


def h_y(t_p, phi, k):
    """Intra-chain dispersion t_p cos(k - phi)."""
    return t_p * np.cos(np.asarray(k, dtype=float) - phi)


def bloch_bands(p: LadderParams, ks) -> np.ndarray:
    """Closed-form eigenvalues of the Bloch matrix on a momentum grid.

    Returns an array of shape (2, len(ks)); rows are the +/- square-root
    branches (not globally continuous bands).
    """
    g = p.uniform_gamma
    if g is None:
        raise ValueError("Bloch form undefined: loss profile is not uniform")
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    hx = h_x(p.t, ks)
    hy = h_y(p.t_p, p.phi, ks)
    s = np.sqrt(hx**2 + (hy + 0.5j * g) ** 2)
    return np.array([-0.5j * g + s, -0.5j * g - s])


@dataclass(frozen=True)
class GeneralModel:
    """A lossy lattice split into lossless sites, lossy sites, and coupling.

    `A` acts within the lossless sites, `B_herm` within the lossy sites (its
    anti-Hermitian part, -i*diag(gamma), is added by the builder), and `C`
    maps lossless-site amplitudes onto lossy sites.
    """

    A: np.ndarray
    B_herm: np.ndarray
    C: np.ndarray
    gamma: tuple

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        B = np.asarray(self.B_herm, dtype=complex)
        C = np.asarray(self.C, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("B_herm must be square")
        if C.shape != (B.shape[0], A.shape[0]):
            raise ValueError(f"C must be shaped (n_d, n_h) = {(B.shape[0], A.shape[0])}")
        if np.abs(A - A.conj().T).max(initial=0.0) > _HERM_TOL:
            raise ValueError("A is not Hermitian (elementwise tolerance 1e-12)")
        if np.abs(B - B.conj().T).max(initial=0.0) > _HERM_TOL:
            raise ValueError("B_herm is not Hermitian (elementwise tolerance 1e-12)")
        g = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if g.size != B.shape[0]:
            raise ValueError("gamma must list one loss rate per lossy site")
        if not np.all(np.isfinite(g)) or np.any(g <= 0):
            raise ValueError("lossy-site rates must be finite and > 0")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B_herm", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "gamma", tuple(g))

    @property
    def n_h(self) -> int:
        return self.A.shape[0]

    @property
    def n_d(self) -> int:
        return self.B_herm.shape[0]


def build_general(g: GeneralModel) -> np.ndarray:
    """Assemble the (n_h + n_d)-dimensional matrix of a general lossy graph, read-only.

    Ordering: lossless sites first, lossy sites after, so the blocks read

        [[A,        C^dagger],
         [C,  B_herm - i diag(gamma)]]
    """
    nh, nd = g.n_h, g.n_d
    H = np.zeros((nh + nd, nh + nd), dtype=complex)
    H[:nh, :nh] = g.A
    H[nh:, nh:] = g.B_herm - 1j * np.diag(g.gamma)
    H[nh:, :nh] = g.C
    H[:nh, nh:] = g.C.conj().T
    H.setflags(write=False)
    return H
